package main

import (
	"fmt"
	"math"
	"runtime"
)

// kScale is the common factor every K (asks per session) of the issue's
// full-size shapes is multiplied by, so that one fixed-work unit takes a few
// seconds and several units fit in one --seconds budget. Every result records
// it. Session counts are never scaled: live-session count is what
// wide-sessions pins.
const kScale = 0.5

// clientCount is the closed-loop client count: two, as the workloads were
// sized for, or one on a single-CPU machine. Like kScale it is not a knob:
// results taken at different sizes cannot be compared.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// content names which utterance shapes a workload draws.
type content int

const (
	contentNLQ  content = iota // count, group-by, job search: the tag-triggered NLQ chain
	contentPlan                // summarize, rank: AE plan -> coordinator -> scheduler -> memo
	contentEven                // alternating NLQ and planned asks
)

// spec is one workload's fixed shape at full size (kScale = 1); why each
// exists is told in BENCHMARK.json and README.md.
type spec struct {
	Name string
	// Medium selects workload.MediumScale (5000 jobs / 20000 applications)
	// over SmallScale (200 / 500).
	Medium bool
	// Sessions (S) and Asks per session (K) at full size.
	Sessions, Asks int
	Content        content
	// CreateTimed makes the S session creations part of the timed work
	// (wide-sessions) instead of untimed set-up.
	CreateTimed bool
	// WriteEvery > 0 turns DataDir on and issues one UPDATE through
	// Enterprise.DB.Exec before every WriteEvery-th ask of each client.
	WriteEvery int
}

var specs = []spec{
	{Name: "nlq-fresh", Medium: true, Sessions: 32, Asks: 256, Content: contentNLQ},
	{Name: "plan-hot", Sessions: 32, Asks: 384, Content: contentPlan},
	{Name: "deep-session", Sessions: 2, Asks: 3072, Content: contentEven},
	{Name: "wide-sessions", Sessions: 512, Asks: 8, Content: contentEven, CreateTimed: true},
	{Name: "write-mix", Sessions: 32, Asks: 256, Content: contentEven, WriteEvery: 8},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smokeDivisor is the size cut of the -smoke run and the smoke test.
const smokeDivisor = 32

// sized returns the sessions and asks per session a unit runs at the given K
// scale. A smoke run also cuts session counts above smokeDivisor so that it
// finishes in about a second; no measured run does.
func (sp spec) sized(scale float64, smoke bool, clients int) (sessions, asks int) {
	asks = int(math.Round(float64(sp.Asks) * scale))
	if asks < 1 {
		asks = 1
	}
	sessions = sp.Sessions
	if smoke && sessions > smokeDivisor {
		sessions /= smokeDivisor
	}
	// Every client owns the same number of sessions.
	if rem := sessions % clients; rem != 0 {
		sessions += clients - rem
	}
	return sessions, asks
}
