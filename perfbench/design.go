package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"adaptivemm/internal/core"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/planstore"
	"adaptivemm/internal/wio"
	"adaptivemm/internal/workload"
)

// The privacy pair every design and timed release uses: the server's
// /design defaults, so the reported expected error is the one a client
// sees without choosing.
var benchPrivacy = mm.Privacy{Epsilon: 0.5, Delta: 1e-4}

// analysisCap mirrors the server's cell cap on the exact error analysis.
const analysisCap = 512

// designResponse is the part of POST /design's answer the benchmark
// reads.
type designResponse struct {
	Strategy      string  `json:"strategy"`
	Queries       int     `json:"queries"`
	Cells         int     `json:"cells"`
	Cached        bool    `json:"cached"`
	ExpectedError float64 `json:"expectedError"`
	LowerBound    float64 `json:"lowerBound"`
	Planner       struct {
		Generator    string  `json:"generator"`
		Inference    string  `json:"inference"`
		DesignMillis float64 `json:"designMillis"`
		Considered   []struct {
			Generator string `json:"generator"`
			Reason    string `json:"reason"`
		} `json:"considered"`
	} `json:"planner"`
}

// builds counts the strategy builds the planner ran for this plan: the
// winner plus every candidate refused at build time.
func (d *designResponse) builds() int {
	n := 1
	for _, c := range d.Planner.Considered {
		if strings.HasPrefix(c.Reason, "rule build:") {
			n++
		}
	}
	return n
}

// designSpec is one workload spec a workload designs, with what the
// design must produce.
type designSpec struct {
	spec      string
	generator string
	// refError is the expected total error recorded for the spec at
	// benchPrivacy; 0 when the analysis is skipped at this size.
	refError float64
}

// refTolerance is the relative tolerance on a recorded expected error.
const refTolerance = 1e-9

// maxErrorRatio bounds expected error over the Thm 2 lower bound (the
// Fig 3a bound the paper-claim tests hold the eigen design to).
const maxErrorRatio = 1.3

// design runs POST /design for spec and checks the result. The error is
// non-nil for a failed request or check; the response is returned either
// way when the request succeeded.
func design(c *inproc, ds designSpec) (*designResponse, error) {
	var sink bufSink
	return designInto(c, ds, &sink)
}

// designInto is design writing the response into a caller-owned sink.
func designInto(c *inproc, ds designSpec, sink *bufSink) (*designResponse, error) {
	var resp designResponse
	if err := c.postJSONTo("/design", map[string]any{"workload": ds.spec}, &resp, sink); err != nil {
		return nil, err
	}
	if resp.Cached {
		return &resp, fmt.Errorf("%s: served from the strategy cache, want a cold design", ds.spec)
	}
	if resp.Planner.Generator != ds.generator {
		return &resp, fmt.Errorf("%s: generator %q, want %q", ds.spec, resp.Planner.Generator, ds.generator)
	}
	if ds.refError != 0 {
		if rel := math.Abs(resp.ExpectedError-ds.refError) / ds.refError; !(rel <= refTolerance) {
			return &resp, fmt.Errorf("%s: expected error %.17g differs from the recorded %.17g by %.3g (relative)",
				ds.spec, resp.ExpectedError, ds.refError, rel)
		}
		if r := resp.ExpectedError / resp.LowerBound; !(r > 0 && r <= maxErrorRatio) {
			return &resp, fmt.Errorf("%s: expected error / lower bound = %.6g, want in (0, %g]", ds.spec, r, maxErrorRatio)
		}
	}
	return &resp, nil
}

// fetchPlan decodes the server's own plan for a spec designed with the
// default hints, through GET /plans/{id}/raw, so the layer calls run on
// exactly the strategy and inference method the server releases with.
func fetchPlan(c *inproc, spec string) (*planner.Plan, error) {
	key := planstore.CanonicalKey(spec, 0, planner.Hints{}.Fingerprint())
	var w bufSink
	if st := c.do(http.MethodGet, "/plans/"+planstore.EntryID(key)+"/raw", nil, &w); st != http.StatusOK {
		return nil, fmt.Errorf("fetching the plan of %s: status %d", spec, st)
	}
	plan, _, err := planstore.DecodeEntry(w.buf)
	if err != nil {
		return nil, fmt.Errorf("decoding the plan of %s: %w", spec, err)
	}
	return plan, nil
}

// designLayers repeats the design of one spec as direct calls into each
// layer's public functions, one span per call, under parent. It runs
// after the server designed the same spec and returns the server's plan.
//
// Spans: workload.gram (spec parsing, which builds analytic Gram
// factors, plus the dense Gram where the generator needs one),
// planner.select (Explain), linalg.eigen, then core.design: core.Design
// for the dense eigen design, core.PrincipalVectors for the factored
// principal-vectors design. The workload caches its Gram, so core.design
// repeats the eigendecomposition and adds the weighting program and the
// strategy's assembly: its duration minus linalg.eigen is the weighting
// time. Then mm.prepare (mm.NewMechanismInference) and planner.analysis
// (mm.Error and the Thm 2 bound) where the server runs it.
func designLayers(t *tracer, pl *planner.Planner, c *inproc, parent, op int, ds designSpec) (*planner.Plan, error) {
	g := t.begin("spec:"+ds.spec, parent, op)
	defer t.end(g)
	var w *workload.Workload
	var err error
	needsGram := ds.generator == "eigen" || ds.generator == "principal-vectors"
	name := "wio.parse"
	if needsGram {
		name = "workload.gram"
	}
	var gram *linalg.Matrix
	t.do(name, g, op, func() {
		w, err = wio.ParseWorkloadSpec(ds.spec, rand.New(rand.NewSource(1)))
		if err == nil && ds.generator == "eigen" {
			gram = w.Gram()
		}
	})
	if err != nil {
		return nil, err
	}
	hints := planner.Hints{Privacy: benchPrivacy, AnalysisCap: analysisCap}
	t.do("planner.select", g, op, func() { _, err = pl.Explain(w, hints) })
	if err != nil {
		return nil, fmt.Errorf("explaining %s: %w", ds.spec, err)
	}

	opts := core.Options{Pipeline: planner.PipelineFor(w)}
	switch ds.generator {
	case "eigen":
		t.do("linalg.eigen", g, op, func() { _, err = linalg.SymEigen(gram) })
		if err != nil {
			return nil, err
		}
		t.do("core.design", g, op, func() { _, err = core.Design(w, opts) })
	case "principal-vectors":
		factors, _ := w.GramFactors()
		t.do("linalg.eigen", g, op, func() {
			parts := make([]*linalg.EigenSym, len(factors))
			for i, f := range factors {
				if parts[i], err = linalg.SymEigen(f); err != nil {
					return
				}
			}
			linalg.KronEigenFactored(parts...)
		})
		if err != nil {
			return nil, err
		}
		t.do("core.design", g, op, func() { _, err = core.PrincipalVectors(w, 16, opts) })
	}
	if err != nil {
		return nil, fmt.Errorf("designing %s: %w", ds.spec, err)
	}

	var plan *planner.Plan
	t.do("planstore.decode", g, op, func() { plan, err = fetchPlan(c, ds.spec) })
	if err != nil {
		return nil, err
	}
	t.do("mm.prepare", g, op, func() { _, err = mm.NewMechanismInference(plan.Op, plan.Inference) })
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", ds.spec, err)
	}
	if w.Cells() <= analysisCap {
		t.do("planner.analysis", g, op, func() {
			if _, err = mm.Error(plan.Workload, plan.Op, benchPrivacy); err == nil {
				mm.LowerBoundFromEigenvalues(plan.Eigenvalues, plan.Workload.NumQueries(), benchPrivacy)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("analysing %s: %w", ds.spec, err)
		}
	}
	return plan, nil
}

// designWeighting returns the weighting time of the traced designs: each
// core.design span minus the linalg.eigen span of the same spec.
func designWeighting(t *tracer, self []time.Duration) time.Duration {
	var total time.Duration
	eigenOf := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.Name == "linalg.eigen" && s.Parent >= 0 {
			eigenOf[s.Parent] += self[i]
		}
	}
	for i, s := range t.spans {
		if s.Name == "core.design" {
			total += self[i] - eigenOf[s.Parent]
		}
	}
	return total
}
