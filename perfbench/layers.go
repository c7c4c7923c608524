package main

import (
	"fmt"
	"runtime"

	"adaptivemm/internal/accountant"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
)

// releaseLayers repeats one release of a plan as direct calls into the
// release-side layers, for the traced run. It owns its own accountant
// and buffers, so it never touches the server's ledger.
type releaseLayers struct {
	plan *planner.Plan
	hist []float64
	acct *accountant.Accountant
	sc   *mm.ReleaseScratch
	tree *linalg.TreeSolver
	ws   linalg.CGWorkspace

	y, noise, est, xt, rhs []float64

	mallocs uint64 // heap allocations inside mm.estimate calls
	calls   int

	open *mm.AnswerStream // releaseAndChunk's stream, nil when none is open
}

func newReleaseLayers(plan *planner.Plan, hist []float64) *releaseLayers {
	op := plan.Op
	r := &releaseLayers{
		plan:  plan,
		hist:  hist,
		acct:  accountant.New(),
		sc:    plan.Mechanism.NewScratch(),
		y:     make([]float64, op.Rows()),
		noise: make([]float64, op.Rows()),
		est:   make([]float64, op.Cols()),
		xt:    make([]float64, op.Cols()),
		rhs:   make([]float64, op.Cols()),
	}
	if plan.Inference == mm.InferCGLS {
		r.tree, _ = linalg.NewTreeSolver(op)
	}
	// The solve input: noisy strategy answers, drawn once.
	linalg.MulVecInto(op, r.y, hist)
	cs := mm.AcquireCryptoSource()
	cs.FillNormal(r.noise)
	mm.ReleaseCryptoSource(cs)
	for i := range r.y {
		r.y[i] += r.noise[i]
	}
	return r
}

// reserveCommit is the accountant's share of one release.
func (r *releaseLayers) reserveCommit() error {
	res, err := r.acct.Reserve("bench", accountant.Budget{Epsilon: benchPrivacy.Epsilon, Delta: benchPrivacy.Delta})
	if err != nil {
		return err
	}
	res.Commit()
	return nil
}

// reserveCommitSpan records the accountant's share of one release.
func (r *releaseLayers) reserveCommitSpan(t *tracer, parent, op int) error {
	var err error
	t.do("accountant.reserve_commit", parent, op, func() { err = r.reserveCommit() })
	return err
}

// release records one release's mechanism calls under parent: the whole
// mechanism step (mm.estimate), and its parts on their own — noise over
// the strategy rows, the plan's solve, and one forward plus transpose
// product on the strategy.
func (r *releaseLayers) release(t *tracer, parent, op int) error {
	var err error
	mech := r.plan.Mechanism
	cs := mm.AcquireCryptoSource()
	defer mm.ReleaseCryptoSource(cs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t.do("mm.estimate", parent, op, func() { _, err = mech.EstimateGaussianInto(r.sc, r.hist, benchPrivacy, cs) })
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - before
	r.calls++
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	t.do("mm.noise", parent, op, func() { cs.FillNormal(r.noise) })
	t.do("linalg.solve", parent, op, func() { err = r.solve() })
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	t.do("linalg.matvec", parent, op, func() {
		linalg.MulVecInto(r.plan.Op, r.noise, r.hist)
		linalg.MulVecTInto(r.plan.Op, r.xt, r.noise)
	})
	return nil
}

// solve runs the least-squares step of the plan's inference method.
func (r *releaseLayers) solve() error {
	mech := r.plan.Mechanism
	switch {
	case r.tree != nil:
		r.tree.SolveLSInto(r.est, r.y, &r.ws)
	case r.plan.Inference == mm.InferDensePinv:
		mech.PreparedPinv().MulVecInto(r.est, r.y)
	case r.plan.Inference == mm.InferNormalCG:
		linalg.MulVecTInto(r.plan.Op, r.rhs, r.y)
		return linalg.SolveSymCGInto(mech.PreparedGram(), r.rhs, r.est, linalg.CGOptions{}, &r.ws)
	default:
		return linalg.SolveCGLSInto(r.plan.Op, r.y, r.est, linalg.CGOptions{}, &r.ws)
	}
	return nil
}

// stream records one streamed release as StreamRelease (noise and
// inference) plus one mm.stream_chunk span per chunk.
func (r *releaseLayers) stream(t *tracer, parent, op int) error {
	cs := mm.AcquireCryptoSource()
	defer mm.ReleaseCryptoSource(cs)
	var st *mm.AnswerStream
	var err error
	t.do("mm.stream_release", parent, op, func() {
		st, err = r.plan.Mechanism.StreamRelease(r.plan.Workload, r.hist, benchPrivacy, cs, 0)
	})
	if err != nil {
		return fmt.Errorf("stream release: %w", err)
	}
	defer st.Close()
	for {
		i := t.begin("mm.stream_chunk", parent, op)
		_, _, ok := st.Next()
		t.end(i)
		if !ok {
			t.spans = t.spans[:i] // the exhausted call yields no chunk
			return nil
		}
	}
}

// releaseAndChunk records the accountant, the mechanism calls and one
// streamed chunk of a release: the layer calls of a workload that does
// not stream. The chunk comes from a stream kept open across calls, so
// only every chunks-per-release-th call pays for a new StreamRelease.
func (r *releaseLayers) releaseAndChunk(t *tracer, parent, op int) error {
	if err := r.reserveCommitSpan(t, parent, op); err != nil {
		return err
	}
	if err := r.release(t, parent, op); err != nil {
		return err
	}
	for {
		if r.open == nil {
			cs := mm.AcquireCryptoSource()
			var err error
			t.do("mm.stream_release", parent, op, func() {
				r.open, err = r.plan.Mechanism.StreamRelease(r.plan.Workload, r.hist, benchPrivacy, cs, 0)
			})
			mm.ReleaseCryptoSource(cs)
			if err != nil {
				return fmt.Errorf("stream release: %w", err)
			}
		}
		i := t.begin("mm.stream_chunk", parent, op)
		_, _, ok := r.open.Next()
		t.end(i)
		if ok {
			return nil
		}
		t.spans = t.spans[:i]
		r.close()
	}
}

// close releases the open stream's scratch.
func (r *releaseLayers) close() {
	if r.open != nil {
		r.open.Close()
		r.open = nil
	}
}
