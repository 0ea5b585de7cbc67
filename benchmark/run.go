package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// runner executes units and probes, each in a child process of this same
// binary, so that heap and the process-global obs state of one never reach
// the next.
type runner struct {
	exe     string
	workDir string
	bench   *benchmarkFile
	// probed caches the layer probes, which do not depend on the workload,
	// for a full run that traces five workloads in one invocation.
	probed map[string]float64
}

// child runs this binary with args and decodes the JSON on the last line of
// its standard output into v.
func (r *runner) child(v any, args ...string) error {
	cmd := exec.Command(r.exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return fmt.Errorf("child %v: bad result: %w", args, err)
	}
	return nil
}

func (r *runner) unit(name string, seed int64, traced bool) (*unitResult, error) {
	cfg, err := json.Marshal(unitConfig{Workload: name, Seed: seed, Traced: traced, WorkDir: r.workDir})
	if err != nil {
		return nil, err
	}
	res := &unitResult{}
	start := time.Now()
	if err := r.child(res, "-unit", string(cfg)); err != nil {
		return nil, err
	}
	res.WallS["process"] = time.Since(start).Seconds()
	return res, nil
}

func (r *runner) probes() (map[string]float64, error) {
	if r.probed == nil {
		if err := r.child(&r.probed, "-probe", "-work", r.workDir); err != nil {
			return nil, err
		}
	}
	return r.probed, nil
}

// gauge runs the reference work (calib.go) in a child process and returns the
// host's speed it found.
func (r *runner) gauge() (float64, error) {
	var res refResult
	if err := r.child(&res, "-ref"); err != nil {
		return 0, err
	}
	return res.speed(), nil
}

// unitSeed derives the seed of a run's rep-th unit; the traced unit of a rep
// gets the same seed, and so the same requests, as its end-to-end unit.
func unitSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// workload runs one workload for about the given seconds and aggregates its
// units. Untraced, it runs end-to-end units only. Traced, it runs the layer
// probes, then alternates a baseline (end-to-end) unit with a traced unit of
// the same seed: the difference between the two is the tracing overhead.
func (r *runner) workload(name string, seed int64, seconds float64, traced bool) (*workloadResult, error) {
	start := time.Now()
	w := &workloadResult{Name: name, EndToEnd: map[string]dist{}, Passes: map[string]*passResult{}}
	e2e, layer := map[string][]float64{}, map[string][]float64{}
	basePass := "end_to_end"
	if traced {
		basePass = "baseline"
		probed, err := r.probes()
		if err != nil {
			return nil, err
		}
		for n, v := range probed {
			layer[n] = []float64{v}
		}
	}
	// The host's speed is gauged before every unit and after the last; a unit
	// is corrected by the mean of the gauges on either side of it.
	speed, err := r.gauge()
	if err != nil {
		return nil, err
	}
	gauged := func(u *unitResult) error {
		next, err := r.gauge()
		if err != nil {
			return err
		}
		u.HostSpeed = (speed + next) / 2
		speedCorrect(r.bench, u.E2E, u.HostSpeed)
		speed = next
		return nil
	}
	var tracedP50, speeds []float64
	for rep := 0; ; rep++ {
		u, err := r.unit(name, unitSeed(seed, rep), false)
		if err == nil {
			err = gauged(u)
		}
		if err != nil {
			return nil, err
		}
		w.Sessions, w.AsksPerSession, w.AskSamples = u.Sessions, u.AsksPerSession, u.Samples["ask"]
		w.pass(basePass).add(u)
		for n, v := range u.E2E {
			e2e[n] = append(e2e[n], v)
		}
		speeds = append(speeds, u.HostSpeed)
		if traced {
			t, err := r.unit(name, unitSeed(seed, rep), true)
			if err == nil {
				err = gauged(t)
			}
			if err != nil {
				return nil, err
			}
			w.pass("traced").add(t)
			for n, v := range t.Layer {
				layer[n] = append(layer[n], v)
			}
			tracedP50 = append(tracedP50, t.E2E["ask_p50_us"])
			layer["proc.host_speed"] = append(layer["proc.host_speed"], t.HostSpeed)
		}
		// Stop when another repetition, at the average cost of those so far,
		// would end past the budget (the driver's schedule counts on a run
		// ending within its seconds), but not before two end-to-end units:
		// one unit has no median. (A traced repetition is two units already,
		// and nothing bounds a per-layer metric.)
		elapsed := time.Since(start).Seconds()
		if (traced || rep >= 1) && elapsed+elapsed/float64(rep+1) > seconds {
			break
		}
	}
	for n, v := range e2e {
		w.EndToEnd[n] = newDist(v)
	}
	w.HostSpeed = newDist(speeds)
	w.TailPct = highestSupported(w.AskSamples)
	if traced {
		layer["obs.trace_overhead_pct"] = []float64{(median(tracedP50)/w.EndToEnd["ask_p50_us"].Median - 1) * 100}
		w.PerLayer = map[string]dist{}
		for n, v := range layer {
			w.PerLayer[n] = newDist(v)
		}
	}
	return w, nil
}

func (w *workloadResult) pass(name string) *passResult {
	p := w.Passes[name]
	if p == nil {
		p = &passResult{Ops: map[string]*opCount{}}
		w.Passes[name] = p
	}
	return p
}

func (p *passResult) add(u *unitResult) {
	p.Units++
	p.WallS += u.WallS["process"]
	for kind, c := range u.Ops {
		addCount(p.Ops, kind, c)
	}
	p.Failures = append(p.Failures, u.Failures...)
}
