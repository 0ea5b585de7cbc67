package relational

import (
	"context"
	"strconv"

	"blueprint/internal/obs"
	"blueprint/internal/resilience"
)

// Process-wide SQL instruments: every statement executed through the engine
// (Query/Exec/Prepare and the Run path alike — runLogged is the single
// funnel) counts and, while the telemetry plane is on, observes its latency.
var (
	mStatements = obs.Default.Counter("blueprint_sql_statements_total", "SQL statements executed through the relational engine")
	mSQLLatency = obs.Default.Histogram("blueprint_sql_latency_seconds", "relational statement execution latency", obs.LatencyBuckets)
)

// QueryContext is Query with span propagation: when ctx carries a trace
// (the agent runtime puts the invocation's span there), the statement
// records a "relational" child span with its truncated text.
func (db *DB) QueryContext(ctx context.Context, sql string, params ...any) (*Result, error) {
	_, sp := obs.StartSpan(ctx, "relational", "query")
	defer sp.End()
	sp.SetAttr("sql", obs.Truncate(sql, 80))
	// The engine keeps no clock: an injected latency here is real time.
	if err := resilience.Check(ctx, nil, resilience.SiteRelational); err != nil {
		return nil, err
	}
	res, err := db.Query(sql, params...)
	if err == nil && sp != nil {
		sp.SetAttr("rows", strconv.Itoa(len(res.Rows)))
	}
	return res, err
}

// QueryContext executes the prepared statement under a "relational" span
// parented to the trace carried by ctx (see DB.QueryContext).
func (s *Stmt) QueryContext(ctx context.Context, params ...any) (*Result, error) {
	_, sp := obs.StartSpan(ctx, "relational", "stmt")
	defer sp.End()
	sp.SetAttr("sql", obs.Truncate(s.sql, 80))
	return s.Query(params...)
}
