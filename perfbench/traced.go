package main

import (
	"bufio"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// designStepNames are the design-side spans outside the strategy build:
// with the build time the server reports and the handler's own time they
// add up to a /design call.
var designStepNames = []string{"planner.select", "mm.prepare", "planner.analysis"}

// runTraced sets up with traced design ops, then spends half the CPU
// budget untraced and half traced, and derives the per-layer metrics from
// the spans. The handler tally is on for the whole untraced half, which
// gives the response bytes and allocations of the plain requests, and
// around the handler calls of the traced half.
func runTraced(out *bufio.Writer, wl *workloadDef, seed int64, seconds float64, traceDir string, host map[string]string) (result, error) {
	t := newTracer()
	r, _, _, err := setUp(wl, seed, t)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	hs := r.stats()
	handlerTally.on = true
	plain := closedLoop(seconds/2, func(int) (int, int, error) { return r.op() })
	handlerTally.on = false
	plainTally := handlerTally
	firstLoopOp := setupReps
	traced := closedLoop(seconds/2, func(i int) (int, int, error) { return r.tracedOp(t, firstLoopOp+i) })
	checkAttempted, checkFailed, notes := r.check()
	path, err := t.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed), host)
	if err != nil {
		return result{}, err
	}

	self := t.selfTimes()
	inLoop := func(i int) bool { return t.spans[i].Op >= firstLoopOp }
	sum := func(name string, keep func(int) bool) (time.Duration, int) {
		var d time.Duration
		n := 0
		for i, s := range t.spans {
			if s.Name == name && (keep == nil || keep(i)) {
				d += self[i]
				n++
			}
		}
		return d, n
	}
	mean := func(name string) float64 {
		d, n := sum(name, nil)
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}

	// Design ops: the traced loop for design-cold, the traced set-ups for
	// the release workloads.
	designOps := float64(setupReps)
	designSpan := func(i int) bool { return t.spans[i].Op < firstLoopOp }
	if wl.designsInLoop {
		designOps = float64(traced.ops)
		designSpan = inLoop
	}
	perDesign := func(name string) float64 {
		d, _ := sum(name, designSpan)
		return float64(d) / designOps
	}
	weighting := designWeighting(t, self)

	// Release workloads split the handler time of the requests that carry
	// the server's trace; design-cold's /design requests carry none.
	k := b2i(!wl.designsInLoop)
	workerTime := float64(hs.wall[k]) * float64(hs.parallelism)
	handlerPerUnit := workerTime / float64(max(hs.n[k], 1))
	// Tracing overhead: handler CPU per operation with the server's trace
	// over without, from the alternating traced ops. /design has no
	// server trace, so on design-cold it is the traced half's handler CPU
	// over the untraced half's: the benchmark's own spans and direct
	// calls are all that differ.
	cpuPer := func(cpu time.Duration, n int) float64 { return cpu.Seconds() / float64(max(n, 1)) }
	overhead := cpuPer(hs.cpu[1], hs.n[1]) / cpuPer(hs.cpu[0], hs.n[0])
	if wl.designsInLoop {
		overhead = cpuPer(hs.cpu[0], hs.n[0]) / cpuPer(plainTally.cpu, plain.units)
	}
	var parts []string
	var attributed float64
	add := func(name string, v float64) {
		attributed += v
		parts = append(parts, fmt.Sprintf("%s %.4g us", name, v/1e3))
	}
	var serverSelf float64
	if wl.designsInLoop {
		// The build (gram, eigen, weighting) is charged at the time the
		// server itself reports: repeating a multi-second build as direct
		// calls varies by more than the handler's own share.
		add("build (reported)", float64(hs.build)/designOps)
		for _, n := range designStepNames {
			add(n, perDesign(n))
		}
		fmt.Fprintf(out, "# build per %s: reported %.4g ms; direct calls: workload.gram %.4g + linalg.eigen %.4g + weighting %.4g ms\n",
			wl.unit, float64(hs.build)/designOps/1e6, perDesign("workload.gram")/1e6, perDesign("linalg.eigen")/1e6,
			float64(weighting)/designOps/1e6)
		// Against a multi-second build that residual is noise; the
		// handler's own path is timed directly instead, as a cache-hit
		// /design of each spec.
		cached, _ := sum("server.cached_design", inLoop)
		fmt.Fprintf(out, "# residual of the /design handler after its parts: %.4g ms per %s (noise of the repeated build)\n",
			(handlerPerUnit-attributed)/1e6, wl.unit)
		serverSelf = float64(cached) / designOps
	} else {
		serverSelf = releaseSplit(out, wl.split, hs, handlerPerUnit, workerTime, sum, inLoop, add)
		if serverSelf < 0 {
			// The parts are the server's own trace of the same releases
			// plus a few direct calls, so they cannot exceed the handler's
			// time unless the split itself is wrong.
			notes = append(notes, fmt.Sprintf("server.self_us = %.4g us is negative: the handler split is wrong", serverSelf/1e3))
			checkAttempted++
			checkFailed++
		}
	}

	layers := hs.layers
	m := map[string]metric{
		"workload.gram_ms":             {perDesign("workload.gram") / 1e6, "ms"},
		"linalg.eigen_ms":              {perDesign("linalg.eigen") / 1e6, "ms"},
		"opt.weighting_ms":             {float64(weighting) / designOps / 1e6, "ms"},
		"mm.prepare_ms":                {perDesign("mm.prepare") / 1e6, "ms"},
		"planner.analysis_ms":          {perDesign("planner.analysis") / 1e6, "ms"},
		"planner.select_us":            {mean("planner.select") / 1e3, "us"},
		"planner.builds_per_plan":      {float64(hs.builds) / float64(max(hs.plans, 1)), "ratio"},
		"linalg.solve_us":              {mean("linalg.solve") / 1e3, "us"},
		"linalg.matvec_us":             {mean("linalg.matvec") / 1e3, "us"},
		"mm.allocs_per_op":             {float64(layers.mallocs) / float64(max(layers.calls, 1)), "count"},
		"accountant.reserve_commit_us": {mean("accountant.reserve_commit") / 1e3, "us"},
		"mm.noise_us":                  {mean("mm.noise") / 1e3, "us"},
		"mm.estimate_us":               {mean("mm.estimate") / 1e3, "us"},
		"mm.stream_chunk_us":           {mean("mm.stream_chunk") / 1e3, "us"},
		"server.self_us":               {serverSelf / 1e3, "us"},
		"server.bytes_per_release":     {float64(plainTally.bytes) / float64(max(plain.units, 1)), "bytes"},
		"server.allocs_per_op":         {float64(plainTally.mallocs) / float64(max(plain.units, 1)), "count"},
		"process.cpu_util":             {traced.cpu.Seconds() / (traced.wall.Seconds() * float64(runtime.NumCPU())), "ratio"},
		"trace.overhead_ratio":         {overhead, "ratio"},
	}

	fmt.Fprintf(out, "# spans: %d written to %s\n", len(t.spans), path)
	fmt.Fprintf(out, "# untraced: %d %ss in %.3fs; traced: %d in %.3fs\n",
		plain.units, wl.unit, plain.wall.Seconds(), traced.units, traced.wall.Seconds())
	fmt.Fprintf(out, "# handler CPU per %s: %.4g us in the untraced half; in the traced half %.4g us without the server's trace",
		wl.unit, 1e6*cpuPer(plainTally.cpu, plain.units), 1e6*cpuPer(hs.cpu[0], hs.n[0]))
	if hs.n[1] > 0 {
		fmt.Fprintf(out, ", %.4g us with it", 1e6*cpuPer(hs.cpu[1], hs.n[1]))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "# handler time per %s %.4g us = server self %.4g us + %s\n",
		wl.unit, handlerPerUnit/1e3, serverSelf/1e3, strings.Join(parts, " + "))
	for _, n := range notes {
		fmt.Fprintf(out, "# check: %s\n", n)
	}
	for _, e := range append(plain.opErrs, traced.opErrs...) {
		fmt.Fprintf(out, "# operation error: %s\n", e)
	}
	printMetrics(out, m)
	attempted := plain.units + traced.units + checkAttempted
	failed := plain.failed + traced.failed + checkFailed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// releaseSplit charges a release's handler time per release: the
// mechanism stages from the server's own trace of the traced releases,
// then the direct calls the server does not trace. It prints the
// server's whole trace next to the direct call that repeats its
// mechanism stages, and returns the rest, server.self_us, in ns.
// workerTime is the handler's wall time times the releases it runs at
// once; for a batch, worker time the stages leave idle is the server's.
func releaseSplit(out *bufio.Writer, sp *handlerSplit, hs *handlerStats, handlerPerUnit, workerTime float64,
	sum func(string, func(int) bool) (time.Duration, int), inLoop func(int) bool, add func(string, float64)) float64 {
	traces := float64(max(hs.traces, 1))
	_, releases := sum("accountant.reserve_commit", inLoop) // one per repeated release
	perRelease := func(name string) float64 {
		d, _ := sum(name, inLoop)
		return float64(d) / float64(max(releases, 1))
	}
	var all float64
	var stages []string
	for _, n := range sortedKeys(hs.stages) {
		all += float64(hs.stages[n])
		stages = append(stages, fmt.Sprintf("%s %.4g us", n, float64(hs.stages[n])/traces/1e3))
	}
	var mech, attributed float64
	for _, n := range sp.mech {
		v := float64(hs.stages[n]) / traces
		mech += v
		attributed += v
		add("mm "+n+" (server trace)", v)
	}
	for _, n := range sp.direct {
		v := perRelease(n)
		attributed += v
		add(n, v)
	}
	fmt.Fprintf(out, "# server's own trace per release (%d traces): %s; the stages fill %.1f%% of the handler's worker time\n",
		hs.traces, strings.Join(stages, ", "), 100*all/workerTime)
	fmt.Fprintf(out, "# cross-check: direct %s %.4g us vs %s in the server's trace %.4g us (ratio %.3g)\n",
		sp.mirror, perRelease(sp.mirror)/1e3, strings.Join(sp.mech, "+"), mech/1e3, perRelease(sp.mirror)/mech)
	return handlerPerUnit - attributed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
