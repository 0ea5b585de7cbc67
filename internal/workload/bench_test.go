package workload

import (
	"fmt"
	"testing"
)

// BenchmarkRangeGroupBy is the analytic ask's statement — an average per city
// over the jobs paid more than a literal — on the 5 000 jobs of MediumScale,
// where idx_jobs_salary serves the range. The literals leave 93 %, 68 %, 44 %
// and 6 % of the rows; B/op should not depend on which.
func BenchmarkRangeGroupBy(b *testing.B) {
	ent, err := Build(42, MediumScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, over := range []int{100000, 140500, 179500, 240000} {
		sql := fmt.Sprintf(`SELECT city, AVG(salary) AS avg_salary FROM jobs WHERE salary > %d GROUP BY city`, over)
		b.Run(fmt.Sprintf("over=%d", over), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := ent.DB.Query(sql); err != nil || len(res.Rows) != len(cities) {
					b.Fatalf("%d groups, err %v", len(res.Rows), err)
				}
			}
		})
	}
}
