package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference work: a fixed amount of ordinary Go work — JSON round trips,
// string-keyed map traffic, a scan over a slice of rows, a sort, channel
// hand-offs between goroutines — that uses nothing of the program under test
// and lives in this directory, which a measured change may not edit. It runs
// in a process of its own, so that nothing the program holds (heap, goroutines)
// reaches it. How long it takes says how fast the host is right now, and
// nothing else.

const (
	refReps   = 160 // timed repetitions per goroutine, after refWarm untimed ones
	refWarm   = 10
	refRounds = 5 // rounds of scan + encode + hand-offs in one repetition
)

type refRow struct {
	ID     int      `json:"id"`
	City   string   `json:"city"`
	Title  string   `json:"title"`
	Salary float64  `json:"salary"`
	Tags   []string `json:"tags"`
}

// refResult is what one run of the reference work measured: the median
// repetition time in ms, over every goroutine.
type refResult struct {
	MedianMS float64 `json:"median_ms"`
	Sum      int     `json:"sum"` // keeps the work's results alive
}

// refWorker is one goroutine's share: its rows and its hand-off partner.
type refWorker struct {
	rows       []refRow
	ping, pong chan int
}

func newRefWorker() *refWorker {
	w := &refWorker{rows: make([]refRow, 4000), ping: make(chan int), pong: make(chan int)}
	for i := range w.rows {
		w.rows[i] = refRow{
			ID: i, City: "city-" + strconv.Itoa(i%37), Title: "title-" + strconv.Itoa(i%101),
			Salary: float64(90000 + (i*7919)%80000), Tags: []string{"t" + strconv.Itoa(i%5), "u" + strconv.Itoa(i%3)},
		}
	}
	go func() {
		for v := range w.ping {
			w.pong <- v + 1
		}
	}()
	return w
}

// rep is one repetition of the reference work.
func (w *refWorker) rep(n int) int {
	total := 0
	for round := 0; round < refRounds; round++ {
		// Scan and group, as a relational statement or a subscription match does.
		byCity := map[string][]int{}
		for i := range w.rows {
			if r := &w.rows[i]; r.Salary > 100000 && r.Title != "title-7" {
				byCity[r.City] = append(byCity[r.City], r.ID)
			}
		}
		keys := make([]string, 0, len(byCity))
		for k := range byCity {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		total += len(keys)
		// Encode and decode, as every stream message and HTTP body is.
		for i := 0; i < 60; i++ {
			raw, err := json.Marshal(&w.rows[(n*refRounds*60+round*60+i)%len(w.rows)])
			if err != nil {
				panic(err)
			}
			var back refRow
			if err := json.Unmarshal(raw, &back); err != nil {
				panic(err)
			}
			total += len(raw) + back.ID
		}
		// Hand-offs: an ask crosses goroutines a dozen times on its way
		// through the agents.
		for i := 0; i < 200; i++ {
			w.ping <- i
			total += <-w.pong
		}
	}
	return total
}

// runRef runs the reference work on as many goroutines as the workloads have
// clients.
func runRef() refResult {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var times []float64
	res := refResult{}
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newRefWorker()
			defer close(w.ping)
			mine := make([]float64, 0, refReps)
			sum := 0
			for n := 0; n < refWarm+refReps; n++ {
				start := time.Now()
				sum += w.rep(n)
				if n >= refWarm {
					mine = append(mine, float64(time.Since(start).Nanoseconds())/1e6)
				}
			}
			mu.Lock()
			times = append(times, mine...)
			res.Sum += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.MedianMS = median(times)
	return res
}

// refNominalMS is what a repetition of the reference work took on the machine
// the benchmark was written on (two CPUs of a 2.1 GHz Xeon, go1.24), when the
// host was quiet. It only fixes the scale: corrected times read as the times
// of that machine.
const refNominalMS = 2.65

// speed is the host's speed as this run of the reference work found it: 1 on
// the reference machine when quiet, 0.7 when the same work takes 1/0.7 as
// long. The median repetition tracked the workloads' times better than the
// mean did (README.md).
func (r refResult) speed() float64 { return refNominalMS / r.MedianMS }

// speedCorrect turns the end-to-end metrics of a unit that ran on a host of
// the given speed into what they would read at speed 1: times shrink with a
// slow host's speed, rates grow; sizes and counts are left alone. Which is
// which is the unit BENCHMARK.json gives the metric.
func speedCorrect(bench *benchmarkFile, e2e map[string]float64, speed float64) {
	for _, def := range bench.EndToEnd {
		switch def.Unit {
		case "us", "ms", "s":
			e2e[def.Name] *= speed
		case "1/s":
			e2e[def.Name] /= speed
		}
	}
}
