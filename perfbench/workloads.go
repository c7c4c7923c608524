package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"adaptivemm/internal/planner"
)

// Every workload is a closed loop with one client in one process: the
// next request is sent only after the previous response was checked.
// The server's own concurrency is bounded by GOMAXPROCS (the default,
// nproc) and, for batches, by the request's parallelism.
var workloads = []*workloadDef{
	{
		name: "design-cold",
		// Why: the only workload where workload, linalg eigen, opt, core and
		// planner do the work and the release layers do none.
		why:           "cold /design of prefix:256 (dense eigen, barrier, pinv, exact analysis) and allrange:48x48 (factored principal vectors); the design layers only",
		unit:          "suite design",
		designsInLoop: true,
		setup:         setupDesignCold,
	},
	{
		name: "release-batch",
		// Why: fixed per-release costs dominate (JSON, one reserve+commit
		// per release, noise, an O(rows+cells) tree solve); the generic
		// operator kernels are bypassed, so kernel work must not move it.
		why:   "batched POST /release, 64 estimate releases per call at parallelism 2, allrange:1024 tree strategy; per-release fixed costs",
		unit:  "release",
		split: estimateSplit,
		setup: setupBatch,
	},
	{
		name: "release-stream",
		// Why: one huge release per request; chunked answering in mm and
		// float serialization in server dominate, the accountant is touched
		// once per release, and peak memory must stay bounded.
		why:   "streamed NDJSON releases of allrange:2048 (2.1M answers each) one at a time; chunked answering and serialization",
		unit:  "release",
		split: streamSplit,
		setup: setupStream,
	},
	// Not here: release-kron (POST /answer on the allrange:32x32 KronOp
	// strategy with CGLS inference). Its CPU time per release tracks the
	// host's neighbours: two ten-run sets of the same code, fifteen
	// minutes apart, had median throughputs of 112 and 150 releases per
	// CPU second, past any bound a regression check could use.
}

// handlerSplit says how the traced run splits a release's handler time
// into layers. The server's own trace of the same release gives the
// mechanism's share (mech, the stage spans it records inside the
// mechanism); direct calls give the shares it does not trace (direct).
// The rest is server.self_us. mirror is the direct call that repeats the
// mech stages, printed next to them as a cross-check.
type handlerSplit struct {
	mech   []string
	direct []string
	mirror string
}

var (
	estimateSplit = &handlerSplit{
		mech:   []string{"answer", "noise", "infer"},
		direct: []string{"accountant.reserve_commit"},
		mirror: "mm.estimate",
	}
	// A stream's trace has one "release" span (StreamRelease: noise and
	// inference) and one "stream" span for the chunk loop, in which the
	// mm chunks interleave with serialization; the chunks are charged at
	// their direct-call time.
	streamSplit = &handlerSplit{
		mech:   []string{"release"},
		direct: []string{"accountant.reserve_commit", "mm.stream_chunk"},
		mirror: "mm.stream_release",
	}
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why, unit string
	// designsInLoop marks a workload whose timed operation is a design
	// (the others design only in set-up).
	designsInLoop bool
	// split divides a release's handler time into layers in the traced
	// run; nil for design-cold.
	split *handlerSplit
	// setup builds the workload's state from the seed. With a tracer it
	// also records the set-up's design work as a traced design op.
	setup func(seed int64, t *tracer, op int) (runner, error)
}

// runner is one set-up workload, ready for timed operations.
type runner interface {
	// op runs one timed operation. units is how many operations (releases
	// or suite designs) it completed and failed how many failed a check.
	op() (units, failed int, err error)
	// tracedOp runs one operation with the server call and the direct
	// layer calls recorded as spans.
	tracedOp(t *tracer, op int) (units, failed int, err error)
	// check runs the untimed correctness pass.
	check() (attempted, failed int, notes []string)
	// errorRatio is the workload's design-quality ratio.
	errorRatio() float64
	stats() *handlerStats
	close()
}

// handlerStats accumulates what the traced run learns about the server's
// handler calls and the layer calls made alongside them.
type handlerStats struct {
	parallelism int // releases the handler runs at once
	// Handler CPU time (from the handler tally), handler wall time and
	// operations completed, indexed by whether the requests asked for the
	// server's own trace ([1]) or not ([0]). Release workloads alternate
	// the two from op to op.
	cpu    [2]time.Duration
	wall   [2]time.Duration
	n      [2]int
	builds int // planner builds behind the plans designed
	plans  int
	// build is the strategy build time the server reported for the
	// designs made inside traced ops (planner.designMillis).
	build time.Duration
	// stages sums, by span name, the server's own per-stage trace of the
	// traced releases ("trace": true), read back from GET /debug/traces;
	// traces counts the release traces read, and seen is the ring's
	// running total at the last read.
	stages map[string]time.Duration
	traces int
	seen   uint64
	layers *releaseLayers
}

// handlerCall runs fn as the server.handler span of op, with the handler
// tally on, and returns fn's status. traced says whether the request
// asked for the server's own trace.
func (h *handlerStats) handlerCall(t *tracer, parent, op int, traced bool, fn func() int) int {
	k := b2i(traced)
	i := t.begin("server.handler", parent, op)
	cpu0 := handlerTally.cpu
	handlerTally.on = true
	st := fn()
	handlerTally.on = false
	t.end(i)
	h.cpu[k] += handlerTally.cpu - cpu0
	h.wall[k] += time.Duration(t.spans[i].End - t.spans[i].Start)
	return st
}

// count records units operations completed by handler calls.
func (h *handlerStats) count(traced bool, units int) { h.n[b2i(traced)] += units }

// serverTraced says whether traced op asks for the server's own trace:
// every other one, so the requests with and without it share the same
// surroundings (heap, direct calls) and their handler CPU prices the
// server's tracing alone.
func serverTraced(op int) bool { return op%2 == 1 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serverTraces reads back the server's own traces of the last n releases
// from GET /debug/traces and adds their spans to h.stages. The ring's
// running total must have grown by exactly n since the last read, so
// every trace read belongs to this operation.
func (h *handlerStats) serverTraces(c *inproc, n int) error {
	var resp struct {
		Total  uint64 `json:"total"`
		Traces []struct {
			Status int `json:"status"`
			Spans  []struct {
				Name  string `json:"name"`
				Start int64  `json:"startMicros"`
				End   int64  `json:"endMicros"`
			} `json:"spans"`
		} `json:"traces"`
	}
	var sink bufSink
	if st := c.do(http.MethodGet, "/debug/traces?n="+strconv.Itoa(n), nil, &sink); st != http.StatusOK {
		return fmt.Errorf("GET /debug/traces: status %d", st)
	}
	if err := json.Unmarshal(sink.buf, &resp); err != nil {
		return fmt.Errorf("GET /debug/traces: %w", err)
	}
	if resp.Total != h.seen+uint64(n) || len(resp.Traces) != n {
		return fmt.Errorf("GET /debug/traces: %d traces, running total %d, want %d traces and total %d",
			len(resp.Traces), resp.Total, n, h.seen+uint64(n))
	}
	h.seen = resp.Total
	if h.stages == nil {
		h.stages = map[string]time.Duration{}
	}
	for _, tr := range resp.Traces {
		if tr.Status != http.StatusOK {
			return fmt.Errorf("GET /debug/traces: a traced release has status %d", tr.Status)
		}
		for _, sp := range tr.Spans {
			h.stages[sp.Name] += time.Duration(sp.End-sp.Start) * time.Microsecond
		}
	}
	h.traces += n
	return nil
}

// seededHistogram is the dataset every release workload registers: one
// count per cell, drawn from the seed.
func seededHistogram(seed int64, cells int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	h := make([]float64, cells)
	for i := range h {
		h[i] = float64(rng.Intn(64))
	}
	return h
}

// The correctness pass releases at ε = 1000, where the Gaussian noise is
// about 4e-3 per strategy answer: estimates must then match the seeded
// counts, and streamed answers the exact range sums, within these
// absolute tolerances.
const (
	checkEpsilon   = 1000
	estimateTol    = 0.25
	rangeAnswerTol = 0.5
)

// maxAbsDiff returns max |a[i] − b[i]|, or +Inf on a length mismatch.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// --- design-cold ---

// designSuite is what one design-cold operation designs.
var designSuite = []designSpec{
	{spec: "prefix:256", generator: "eigen", refError: 27.41808169253855},
	{spec: "allrange:48x48", generator: "principal-vectors"},
}

// warmSuite is designed once per set-up so the timed designs do not pay
// for first-use page faults and lazily initialised state.
var warmSuite = []designSpec{
	{spec: "prefix:96", generator: "eigen"},
	{spec: "allrange:8x8", generator: "eigen"},
}

type designCold struct {
	seed int64
	last *inproc // server of the latest design, kept for the check pass
	// prefix is the latest design response for designSuite[0].
	prefix *designResponse
	hs     handlerStats
	pl     *planner.Planner
}

func setupDesignCold(seed int64, t *tracer, op int) (runner, error) {
	c, err := newInproc()
	if err != nil {
		return nil, err
	}
	defer c.close()
	for _, ds := range warmSuite {
		if _, err := design(c, ds); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &designCold{seed: seed, pl: planner.New(planner.Config{}), hs: handlerStats{parallelism: 1}}, nil
}

func (d *designCold) op() (int, int, error) {
	// A cold design starts from a collected heap, whatever the previous
	// suite left behind.
	runtime.GC()
	c, err := newInproc()
	if err != nil {
		return 0, 0, err
	}
	d.keep(c)
	for _, ds := range designSuite {
		resp, err := design(c, ds)
		if err != nil {
			return 1, 1, err
		}
		if ds.refError != 0 {
			d.prefix = resp
		}
	}
	return 1, 0, nil
}

func (d *designCold) tracedOp(t *tracer, op int) (int, int, error) {
	runtime.GC()
	c, err := newInproc()
	if err != nil {
		return 0, 0, err
	}
	d.keep(c)
	root := t.begin("op", -1, op)
	defer t.end(root)
	var prefixPlan *planner.Plan
	for _, ds := range designSuite {
		var resp *designResponse
		d.hs.handlerCall(t, root, op, false, func() int {
			resp, err = design(c, ds)
			return 0
		})
		if err != nil {
			return 1, 1, err
		}
		// The same request again is a strategy-cache hit: the handler's own
		// path (decode, lookup, memoized analysis, encode) without planning.
		t.do("server.cached_design", root, op, func() {
			var again designResponse
			if err = c.postJSON("/design", map[string]any{"workload": ds.spec}, &again); err == nil && !again.Cached {
				err = fmt.Errorf("%s: repeated /design was not a cache hit", ds.spec)
			}
		})
		if err != nil {
			return 1, 1, err
		}
		d.hs.builds += resp.builds()
		d.hs.plans++
		d.hs.build += time.Duration(resp.Planner.DesignMillis * float64(time.Millisecond))
		plan, err := designLayers(t, d.pl, c, root, op, ds)
		if err != nil {
			return 1, 1, err
		}
		if ds.refError != 0 {
			d.prefix = resp
			prefixPlan = plan
		}
	}
	d.hs.count(false, 1)
	// Design once, release once: the release layers run on the designed
	// prefix plan. Every op designs the same strategy, so the first op's
	// plan serves them all.
	if d.hs.layers == nil {
		d.hs.layers = newReleaseLayers(prefixPlan, seededHistogram(d.seed, prefixPlan.Workload.Cells()))
	}
	if err := d.hs.layers.releaseAndChunk(t, root, op); err != nil {
		return 1, 1, err
	}
	return 1, 0, nil
}

func (d *designCold) keep(c *inproc) {
	if d.last != nil {
		d.last.close()
	}
	d.last = c
}

// check releases once at ε = 1000 against the latest designed prefix
// strategy: the estimate must match the seeded histogram.
func (d *designCold) check() (int, int, []string) {
	if d.prefix == nil {
		return 1, 1, []string{"no design completed"}
	}
	ds, resp := designSuite[0], d.prefix
	hist := seededHistogram(d.seed, resp.Cells)
	if err := d.last.postJSON("/datasets", map[string]any{"name": "check", "histogram": hist}, nil); err != nil {
		return 1, 1, []string{err.Error()}
	}
	var out struct {
		Answers []float64 `json:"answers"`
	}
	if err := d.last.postJSON("/answer", map[string]any{"strategy": resp.Strategy, "dataset": "check",
		"epsilon": checkEpsilon, "delta": benchPrivacy.Delta, "mode": "estimate"}, &out); err != nil {
		return 1, 1, []string{err.Error()}
	}
	diff := maxAbsDiff(out.Answers, hist)
	note := fmt.Sprintf("%s estimate at eps=%d: max |est-x| = %.3g (tolerance %g)", ds.spec, checkEpsilon, diff, estimateTol)
	if !(diff <= estimateTol) {
		return 1, 1, []string{note}
	}
	return 1, 0, []string{note}
}

func (d *designCold) errorRatio() float64 {
	if d.prefix == nil {
		return math.NaN()
	}
	return d.prefix.ExpectedError / d.prefix.LowerBound
}
func (d *designCold) stats() *handlerStats { return &d.hs }
func (d *designCold) close() {
	if d.last != nil {
		d.last.close()
	}
	if d.hs.layers != nil {
		d.hs.layers.close()
	}
}

// --- release workloads ---

// probeSpec is the design-quality probe of the release workloads, whose
// own strategies are too large for the exact error analysis: an exact
// eigen design whose expected error over the Thm 2 bound is their
// error_ratio. It is designed in the correctness pass, outside set-up,
// and in each set-up of the traced run, where its layer spans are the
// release workloads' design-layer metrics.
var probeSpec = designSpec{spec: "prefix:128", generator: "eigen", refError: 24.681881289491333}

// releaseBase is the state the release workloads share: one server with
// the workload's strategy and one registered, uncapped dataset.
type releaseBase struct {
	seed     int64
	c        *inproc
	spec     designSpec
	strategy string
	// cells and queries size the workload's strategy.
	cells, queries int
	hist           []float64
	// ratio is the probe's error ratio.
	ratio float64
	hs    handlerStats
}

// setupRelease designs the workload's strategy, registers the seeded
// dataset and, for the traced run, fetches the server's plan.
func setupRelease(seed int64, t *tracer, op int, ds designSpec, parallelism int) (*releaseBase, error) {
	c, err := newInproc()
	if err != nil {
		return nil, err
	}
	b := &releaseBase{seed: seed, c: c, spec: ds, hs: handlerStats{parallelism: parallelism}}
	if err := b.designAll(t, op); err != nil {
		c.close()
		return nil, err
	}
	b.hist = seededHistogram(seed, b.cells)
	if err := c.postJSON("/datasets", map[string]any{"name": "bench", "histogram": b.hist}, nil); err != nil {
		c.close()
		return nil, err
	}
	if t != nil {
		// Only the traced run holds a decoded copy of the plan: for
		// allrange:2048 its analytic Gram factor alone is 32 MiB, which
		// would otherwise show in peak_rss_mb.
		plan, err := fetchPlan(c, ds.spec)
		if err != nil {
			c.close()
			return nil, err
		}
		b.hs.layers = newReleaseLayers(plan, b.hist)
	}
	return b, nil
}

// designAll designs the workload's strategy. The traced run records it
// as one design op and designs the probe in the same op (on a server of
// its own), so its set-ups carry the design-layer spans; the traced run
// reports no set-up time.
func (b *releaseBase) designAll(t *tracer, op int) error {
	root := -1
	if t != nil {
		root = t.begin("op", -1, op)
		defer t.end(root)
	}
	var resp *designResponse
	var err error
	if t == nil {
		resp, err = design(b.c, b.spec)
	} else {
		t.do("server.handler", root, op, func() { resp, err = design(b.c, b.spec) })
	}
	if err != nil {
		return err
	}
	b.strategy, b.cells, b.queries = resp.Strategy, resp.Cells, resp.Queries
	if t == nil {
		return nil
	}
	b.hs.builds += resp.builds()
	b.hs.plans++
	if _, err := designLayers(t, planner.New(planner.Config{}), b.c, root, op, b.spec); err != nil {
		return err
	}
	_, err = b.probe(t, root, op)
	return err
}

// probe designs probeSpec cold on a server of its own, keeps its error
// ratio and returns the note checkProbe prints. With a tracer it records
// the design's layer spans under parent.
func (b *releaseBase) probe(t *tracer, parent, op int) (string, error) {
	c, err := newInproc()
	if err != nil {
		return "", err
	}
	defer c.close()
	var resp *designResponse
	if t == nil {
		resp, err = design(c, probeSpec)
	} else {
		t.do("server.handler", parent, op, func() { resp, err = design(c, probeSpec) })
	}
	if err != nil {
		return "", fmt.Errorf("probe: %w", err)
	}
	b.ratio = resp.ExpectedError / resp.LowerBound
	note := fmt.Sprintf("probe %s: expected error %.17g (recorded %.17g), over the lower bound %.6g (at most %g)",
		probeSpec.spec, resp.ExpectedError, probeSpec.refError, b.ratio, maxErrorRatio)
	if t != nil {
		b.hs.builds += resp.builds()
		b.hs.plans++
		if _, err := designLayers(t, planner.New(planner.Config{}), c, parent, op, probeSpec); err != nil {
			return note, err
		}
	}
	return note, nil
}

// checkProbe designs the probe once, as one check. Its design time is
// not reported: a single design of about a second spread by up to 37%
// across runs of the same code, and design-cold times the design path.
func (b *releaseBase) checkProbe() (int, int, []string) {
	note, err := b.probe(nil, -1, -1)
	if err != nil {
		return 1, 1, []string{err.Error()}
	}
	return 1, 0, []string{note}
}

func (b *releaseBase) errorRatio() float64  { return b.ratio }
func (b *releaseBase) stats() *handlerStats { return &b.hs }
func (b *releaseBase) close() {
	if b.hs.layers != nil {
		b.hs.layers.close()
	}
	b.c.close()
}

// release-batch

const (
	batchSize        = 64
	batchParallelism = 2
)

type batch struct {
	*releaseBase
	// body is the timed request; traced is the same with every release
	// opted into the server's per-stage trace.
	body, traced []byte
	sink         bufSink
}

func setupBatch(seed int64, t *tracer, op int) (runner, error) {
	b, err := setupRelease(seed, t, op, designSpec{spec: "allrange:1024", generator: "hierarchical"}, batchParallelism)
	if err != nil {
		return nil, err
	}
	r := &batch{releaseBase: b, body: batchBody(b.strategy, benchPrivacy.Epsilon, false),
		traced: batchBody(b.strategy, benchPrivacy.Epsilon, true)}
	return r, warmUp(r, 8)
}

func batchBody(strategy string, eps float64, trace bool) []byte {
	items := make([]map[string]any, batchSize)
	for i := range items {
		items[i] = map[string]any{"strategy": strategy, "dataset": "bench",
			"epsilon": eps, "delta": benchPrivacy.Delta, "mode": "estimate", "trace": trace}
	}
	body, _ := json.Marshal(map[string]any{"releases": items, "parallelism": batchParallelism})
	return body
}

// verify checks a batch response's status, counts and answer lengths.
func (r *batch) verify(st int) int {
	if st != http.StatusOK || !bytes.HasSuffix(bytes.TrimSpace(r.sink.buf), []byte(`"succeeded":64,"failed":0}`)) {
		return batchSize
	}
	if n, ok := countArrays(r.sink.buf, `"answers":[`, len(r.hist)); n != batchSize || !ok {
		return batchSize
	}
	return 0
}

func (r *batch) op() (int, int, error) {
	failed := r.verify(r.c.do(http.MethodPost, "/release", r.body, &r.sink))
	return batchSize, failed, nil
}

func (r *batch) tracedOp(t *tracer, op int) (int, int, error) {
	root := t.begin("op", -1, op)
	defer t.end(root)
	on, body := serverTraced(op), r.body
	if on {
		body = r.traced
	}
	st := r.hs.handlerCall(t, root, op, on, func() int {
		return r.c.do(http.MethodPost, "/release", body, &r.sink)
	})
	failed := r.verify(st)
	r.hs.count(on, batchSize)
	if on {
		if err := r.hs.serverTraces(r.c, batchSize); err != nil {
			return batchSize, batchSize, err
		}
	}
	return batchSize, failed, r.hs.layers.releaseAndChunk(t, root, op)
}

func (r *batch) check() (int, int, []string) {
	var out struct {
		Results []struct {
			Status  int       `json:"status"`
			Answers []float64 `json:"answers"`
		} `json:"results"`
	}
	attempted, failed, notes := r.checkProbe()
	var sink bufSink
	if st := r.c.do(http.MethodPost, "/release", batchBody(r.strategy, checkEpsilon, false), &sink); st != http.StatusOK {
		return attempted + 1, failed + 1, append(notes, fmt.Sprintf("eps=%d batch: status %d", checkEpsilon, st))
	}
	if err := json.Unmarshal(sink.buf, &out); err != nil || len(out.Results) != batchSize {
		return attempted + 1, failed + 1, append(notes, fmt.Sprintf("eps=%d batch: bad response (%v)", checkEpsilon, err))
	}
	var worst float64
	for _, res := range out.Results {
		if res.Status != http.StatusOK {
			worst = math.Inf(1)
			continue
		}
		worst = max(worst, maxAbsDiff(res.Answers, r.hist))
	}
	note := fmt.Sprintf("%d estimates at eps=%d: max |est-x| = %.3g (tolerance %g)", batchSize, checkEpsilon, worst, estimateTol)
	if !(worst <= estimateTol) {
		failed++
	}
	return attempted + 1, failed, append(notes, note)
}

// release-stream

type stream struct {
	*releaseBase
	body, traced []byte // as for batch
	sink         lineSink
	// per-request scan state
	rows, values int
	trailer      []byte
	bad          bool
}

func setupStream(seed int64, t *tracer, op int) (runner, error) {
	b, err := setupRelease(seed, t, op, designSpec{spec: "allrange:2048", generator: "hierarchical"}, 1)
	if err != nil {
		return nil, err
	}
	r := &stream{releaseBase: b, body: streamBody(b.strategy, benchPrivacy.Epsilon, false),
		traced: streamBody(b.strategy, benchPrivacy.Epsilon, true)}
	r.sink.onLine = r.scan
	return r, warmUp(r, 2)
}

func streamBody(strategy string, eps float64, trace bool) []byte {
	body, _ := json.Marshal(map[string]any{"stream": true, "strategy": strategy, "dataset": "bench",
		"epsilon": eps, "delta": benchPrivacy.Delta, "trace": trace})
	return body
}

var (
	rowsKey    = []byte(`"rows":`)
	answersKey = []byte(`"answers":[`)
	doneKey    = []byte(`{"done":true`)
)

// scan checks one NDJSON record without parsing its numbers: the header
// gives the row count, chunk records add their value counts, and the
// trailer is kept for verify.
func (r *stream) scan(line []byte) {
	switch {
	case bytes.HasPrefix(line, doneKey):
		r.trailer = append(r.trailer[:0], line...)
	case bytes.HasPrefix(line, []byte(`{"offset":`)):
		i := bytes.Index(line, answersKey)
		if i < 0 {
			r.bad = true
			return
		}
		r.values += bytes.Count(line[i:], []byte{','}) + 1
	case bytes.HasPrefix(line, []byte(`{"stream":`)):
		i := bytes.Index(line, rowsKey)
		if i < 0 {
			r.bad = true
			return
		}
		rest := line[i+len(rowsKey):]
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			r.bad = true
			return
		}
		r.rows, _ = strconv.Atoi(string(rest[:j]))
	default:
		r.bad = true
	}
}

func (r *stream) send(body []byte) int {
	r.rows, r.values, r.bad = 0, 0, false
	r.trailer = r.trailer[:0]
	return r.c.do(http.MethodPost, "/release", body, &r.sink)
}

// verify checks status, the header's row count, the number of values
// received and the trailer's count.
func (r *stream) verify(st int) int {
	want := r.queries
	trailerCount := []byte(`"count":` + strconv.Itoa(want) + `,`)
	if st != http.StatusOK || r.bad || r.rows != want || r.values != want || !bytes.Contains(r.trailer, trailerCount) {
		return 1
	}
	return 0
}

func (r *stream) op() (int, int, error) {
	return 1, r.verify(r.send(r.body)), nil
}

func (r *stream) tracedOp(t *tracer, op int) (int, int, error) {
	root := t.begin("op", -1, op)
	defer t.end(root)
	on, body := serverTraced(op), r.body
	if on {
		body = r.traced
	}
	st := r.hs.handlerCall(t, root, op, on, func() int { return r.send(body) })
	r.hs.count(on, 1)
	failed := r.verify(st)
	if on {
		if err := r.hs.serverTraces(r.c, 1); err != nil {
			return 1, 1, err
		}
	}
	if err := r.hs.layers.reserveCommitSpan(t, root, op); err != nil {
		return 1, 1, err
	}
	if err := r.hs.layers.stream(t, root, op); err != nil {
		return 1, 1, err
	}
	return 1, failed, r.hs.layers.release(t, root, op)
}

// check streams once at ε = 1000 and parses every answer: each must
// match its exact range sum over the seeded histogram, and the trailer's
// count and FNV-64a checksum must match the answers received.
func (r *stream) check() (int, int, []string) {
	d := len(r.hist)
	var lo, hi, got int
	var run, worst float64
	sum := uint64(14695981039346656037)
	var trailer []byte
	bad := false
	sink := lineSink{onLine: func(line []byte) {
		switch {
		case bytes.HasPrefix(line, doneKey):
			trailer = append([]byte(nil), line...)
		case bytes.HasPrefix(line, []byte(`{"offset":`)):
			var rec struct {
				Offset  int       `json:"offset"`
				Answers []float64 `json:"answers"`
			}
			if err := json.Unmarshal(line, &rec); err != nil || rec.Offset != got {
				bad = true
				return
			}
			for _, a := range rec.Answers {
				if lo >= d {
					bad = true
					return
				}
				run += r.hist[hi]
				worst = max(worst, math.Abs(a-run))
				bits := math.Float64bits(a)
				for s := 0; s < 64; s += 8 {
					sum ^= uint64(byte(bits >> s))
					sum *= 1099511628211
				}
				got++
				if hi++; hi == d {
					lo++
					hi, run = lo, 0
				}
			}
		}
	}}
	st := r.c.do(http.MethodPost, "/release", streamBody(r.strategy, checkEpsilon, false), &sink)
	want := r.queries
	wantTrailer := fmt.Sprintf(`{"done":true,"count":%d,"checksum":"%016x"}`, got, sum)
	attempted, failed, notes := r.checkProbe()
	notes = append(notes, fmt.Sprintf("stream at eps=%d: %d answers, max |answer-exact| = %.3g (tolerance %g), trailer %s",
		checkEpsilon, got, worst, rangeAnswerTol, trailer))
	if st != http.StatusOK || bad || got != want || string(trailer) != wantTrailer || !(worst <= rangeAnswerTol) {
		return attempted + 1, failed + 1, append(notes, "want trailer "+wantTrailer)
	}
	return attempted + 1, failed, notes
}

// warmUp collects the heap and then runs n untimed operations, all of
// which must pass their checks. The timed loop thus starts with the
// sync.Pools the release path reuses filled, and with set-up's garbage
// gone, so whether a collection falls inside the loop depends on the
// loop's own allocation alone.
func warmUp(r runner, n int) error {
	runtime.GC()
	for range n {
		_, failed, err := r.op()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if failed > 0 {
			return fmt.Errorf("warm-up: an operation failed its checks")
		}
	}
	return nil
}
