package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"adaptivemm/internal/mm"
)

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestDesignAndAnswerFlow(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "marginals:1:4x4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Strategy == "" || d.Queries != 8 || d.Cells != 16 {
		t.Fatalf("design response %+v", d)
	}
	// Marginal workloads sit exactly on the bound; allow float round-off.
	if d.ExpectedError < d.LowerBound*(1-1e-6) {
		t.Fatalf("expected error below bound: %+v", d)
	}

	hist := make([]float64, 16)
	for i := range hist {
		hist[i] = float64(i + 1)
	}
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	var a answerResponse
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != 8 {
		t.Fatalf("answers = %d", len(a.Answers))
	}
	if a.Ledger.Epsilon != 0.5 || a.Ledger.Delta != 1e-4 {
		t.Fatalf("ledger %+v", a.Ledger)
	}

	// A second release accumulates budget.
	_, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "db1", "histogram": hist,
		"epsilon": 0.25, "delta": 1e-4, "seed": 4,
	})
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if a.Ledger.Epsilon != 0.75 {
		t.Fatalf("ledger after second release %+v", a.Ledger)
	}

	// Ledger endpoint reflects the spend.
	resp, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	// Inline-histogram releases are accounted in the ad-hoc namespace.
	if ledger["adhoc:db1"].Epsilon != 0.75 {
		t.Fatalf("ledger endpoint %+v", ledger)
	}
}

func TestDesignWithExplicitRows(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/design", map[string]any{
		"rows":  [][]float64{{1, 1, 0, 0}, {0, 0, 1, 1}},
		"shape": []int{4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Queries != 2 || d.Cells != 4 {
		t.Fatalf("design %+v", d)
	}
}

func TestDesignValidation(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	cases := []map[string]any{
		{},
		{"workload": "bogus:4"},
		{"workload": "fig1", "rows": [][]float64{{1}}},
		{"rows": [][]float64{{1, 2}}},                    // no shape
		{"rows": [][]float64{{1, 2}}, "shape": []int{4}}, // wrong width
		{"rows": [][]float64{}, "shape": []int{2}},       // empty
	}
	for i, c := range cases {
		resp, _ := post(t, ts, "/design", c)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestAnswerValidation(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, body := post(t, ts, "/design", map[string]any{"workload": "prefix:4"})
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	cases := []map[string]any{
		{"strategy": "nope", "dataset": "d", "histogram": []float64{1, 2, 3, 4}, "epsilon": 1, "delta": 1e-4},
		{"strategy": d.Strategy, "histogram": []float64{1, 2, 3, 4}, "epsilon": 1, "delta": 1e-4}, // no dataset
		{"strategy": d.Strategy, "dataset": "d", "histogram": []float64{1}, "epsilon": 1, "delta": 1e-4},
		{"strategy": d.Strategy, "dataset": "d", "histogram": []float64{1, 2, 3, 4}, "epsilon": 0, "delta": 1e-4},
	}
	for i, c := range cases {
		resp, _ := post(t, ts, "/answer", c)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Failed releases must not charge the ledger.
	resp, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger) != 0 {
		t.Fatalf("ledger charged on failures: %+v", ledger)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/design")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /design status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/ledger", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /ledger status %d", resp.StatusCode)
	}
}

func TestDeterministicSeed(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	_, body := post(t, ts, "/design", map[string]any{"workload": "identity:4"})
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{
		"strategy": d.Strategy, "dataset": "d", "histogram": []float64{1, 2, 3, 4},
		"epsilon": 1, "delta": 1e-4, "seed": 42,
	}
	var a1, a2 answerResponse
	_, b1 := post(t, ts, "/answer", req)
	_, b2 := post(t, ts, "/answer", req)
	if err := json.Unmarshal(b1, &a1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &a2); err != nil {
		t.Fatal(err)
	}
	for i := range a1.Answers {
		if a1.Answers[i] != a2.Answers[i] {
			t.Fatal("same seed produced different answers")
		}
	}
}

// TestLargeDomainHierarchicalDesign exercises the scalability path the
// dense pipeline refused: all range queries over 2048 cells (~2.1M rows)
// are designed with the structured hierarchical strategy and answered in
// estimate mode, all matrix-free.
func TestLargeDomainHierarchicalDesign(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "allrange:2048"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Cells != 2048 || d.Queries != 2048*2049/2 {
		t.Fatalf("design response %+v", d)
	}
	if d.Form != "hierarchical" {
		t.Fatalf("form = %q, want hierarchical", d.Form)
	}

	hist := make([]float64, 2048)
	for i := range hist {
		hist[i] = float64(i % 13)
	}
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "big", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 5, "mode": "estimate",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	var a answerResponse
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != 2048 {
		t.Fatalf("estimate length %d, want 2048", len(a.Answers))
	}

	// The default answers mode is capped: 2.1M per-query answers would be
	// an unbounded response, so the server must refuse with guidance.
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "big", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 6,
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("uncapped answers mode: status %d: %s", resp.StatusCode, body)
	}
}

// TestLargeProductDomainPrincipalDesign checks that 2-D product workloads
// past the dense cap get the factored principal-vector design.
func TestLargeProductDomainPrincipalDesign(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "allrange:48x48"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Form != "principal" {
		t.Fatalf("form = %q, want principal", d.Form)
	}
	if d.LowerBound <= 0 {
		t.Fatalf("expected a positive lower bound from the factored eigenvalues, got %+v", d)
	}

	hist := make([]float64, 48*48)
	for i := range hist {
		hist[i] = float64(i % 5)
	}
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "big2d", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "seed": 6, "mode": "estimate",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	var a answerResponse
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != 48*48 {
		t.Fatalf("estimate length %d", len(a.Answers))
	}
}

// TestConcurrentAnswersAndLedger hammers /answer and /ledger in parallel;
// with the read-write lock, reads proceed concurrently and the ledger
// total must still come out exact. Run under -race in CI.
func TestConcurrentAnswersAndLedger(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	_, body := post(t, ts, "/design", map[string]any{"workload": "identity:16"})
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 16)

	// postQuiet avoids t.Fatal off the test goroutine: failures flow
	// through the errs channel instead.
	postQuiet := func(path string, body any) (int, []byte, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, out.Bytes(), nil
	}

	const workers = 8
	const releases = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < releases; i++ {
				code, body, err := postQuiet("/answer", map[string]any{
					"strategy": d.Strategy, "dataset": "shared", "histogram": hist,
					"epsilon": 0.1, "delta": 1e-5, "seed": int64(g*1000 + i + 1),
				})
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("answer status %d: %s", code, body)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < releases; i++ {
				resp, err := http.Get(ts.URL + "/ledger")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ledger map[string]Budget
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	want := 0.1 * workers * releases
	if got := ledger["adhoc:shared"].Epsilon; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("ledger epsilon = %g, want %g", got, want)
	}
}

// TestAnswerModeValidation rejects unknown release modes.
func TestAnswerModeValidation(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	_, body := post(t, ts, "/design", map[string]any{"workload": "identity:4"})
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "d", "histogram": []float64{1, 2, 3, 4},
		"epsilon": 1, "delta": 1e-4, "mode": "bogus",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus mode status %d", resp.StatusCode)
	}
}

// Every /design response must name the winning generator with its modeled
// cost and inference method, and list every candidate's admission outcome
// — the planner is the only place strategy selection happens.
func TestDesignPlannerReport(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "marginals:2:8x8x4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Planner.Generator != "marginals" {
		t.Fatalf("generator = %q, want marginals (closed-form optimal)", d.Planner.Generator)
	}
	if d.Form != "marginals" {
		t.Fatalf("form = %q, want marginals", d.Form)
	}
	if d.Planner.ModeledCost <= 0 {
		t.Fatalf("modeled cost %g not reported", d.Planner.ModeledCost)
	}
	if d.Planner.Inference == "" {
		t.Fatal("inference method not reported")
	}
	if len(d.Planner.Considered) < 4 {
		t.Fatalf("expected every registered generator in the report, got %+v", d.Planner.Considered)
	}
	var selected int
	for _, dec := range d.Planner.Considered {
		if dec.Selected {
			selected++
			if dec.Generator != "marginals" {
				t.Fatalf("selected decision = %+v", dec)
			}
		}
	}
	if selected != 1 {
		t.Fatalf("%d selected decisions, want exactly 1", selected)
	}
	// The closed-form marginal design meets the Thm 2 bound exactly.
	if d.LowerBound <= 0 || d.ExpectedError > d.LowerBound*(1+1e-6) {
		t.Fatalf("marginal design error %g above lower bound %g", d.ExpectedError, d.LowerBound)
	}
}

// Design-time hints steer the planner: a tight budget refuses the exact
// design a loose one admits, and the hints are part of the cache key so
// the two requests yield distinct strategies.
func TestDesignHintsChangeGeneratorAndCacheKey(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	var tight, loose designResponse
	resp, body := post(t, ts, "/design", map[string]any{"workload": "prefix:128", "maxDesignMillis": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tight design status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &tight); err != nil {
		t.Fatal(err)
	}
	if tight.Planner.Generator != "hierarchical" {
		t.Fatalf("tight-budget generator = %q, want hierarchical", tight.Planner.Generator)
	}
	resp, body = post(t, ts, "/design", map[string]any{"workload": "prefix:128"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loose design status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &loose); err != nil {
		t.Fatal(err)
	}
	if loose.Planner.Generator != "eigen" {
		t.Fatalf("default-budget generator = %q, want eigen", loose.Planner.Generator)
	}
	if tight.Strategy == loose.Strategy {
		t.Fatal("different hints reused one cached strategy id")
	}
	if tight.Cached || loose.Cached {
		t.Fatal("fresh designs reported cached")
	}
	// Same spec and hints: cache hit with the same id and planner report.
	resp, body = post(t, ts, "/design", map[string]any{"workload": "prefix:128", "maxDesignMillis": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat design status %d: %s", resp.StatusCode, body)
	}
	var again designResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Strategy != tight.Strategy || again.Planner.Generator != "hierarchical" {
		t.Fatalf("cache hit response %+v", again)
	}
}

// A forced generator hint overrides the cost-based choice.
func TestDesignForcedGenerator(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "prefix:64", "generator": "identity"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Planner.Generator != "identity" || d.Form != "identity" {
		t.Fatalf("forced generator response %+v", d.Planner)
	}
	resp, body = post(t, ts, "/design", map[string]any{"workload": "prefix:64", "generator": "no-such"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown generator status %d: %s", resp.StatusCode, body)
	}
}

// The strategy table is permanent server state: past its bound, /design
// refuses with 507 instead of growing without limit (a client sweeping
// hint values or posting explicit rows would otherwise mint unbounded
// entries).
func TestStrategyTableBound(t *testing.T) {
	s := New()
	s.mu.Lock()
	for i := 0; i < maxStoredStrategies; i++ {
		s.strategies[fmt.Sprintf("fill%d", i)] = nil
	}
	s.mu.Unlock()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := post(t, ts, "/design", map[string]any{"workload": "identity:16"})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("design past the strategy bound: status %d: %s", resp.StatusCode, body)
	}
}

// A marginal workload with ≥2 disjoint attribute blocks is planned
// sharded by default: the planner block lists every shard's generator,
// releases run the composite end to end (mode "estimate" is refused with
// guidance), and batch /release drives the sharded strategy too.
func TestDesignShardedPlannerBlock(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/design", map[string]any{"workload": "marginals:1:16x16"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status %d: %s", resp.StatusCode, body)
	}
	var d designResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Planner.Generator != "sharded" || d.Form != "sharded" {
		t.Fatalf("generator = %q form = %q, want sharded", d.Planner.Generator, d.Form)
	}
	if d.Planner.Inference != "sharded" {
		t.Fatalf("inference = %q, want sharded", d.Planner.Inference)
	}
	if len(d.Planner.Shards) != 2 {
		t.Fatalf("planner block lists %d shards, want 2: %+v", len(d.Planner.Shards), d.Planner.Shards)
	}
	for i, s := range d.Planner.Shards {
		if s.Generator != "marginals" || s.Cells != 16 || s.Kind != "marginal-block" {
			t.Fatalf("shard %d = %+v", i, s)
		}
	}
	if d.ExpectedError <= 0 {
		t.Fatalf("sharded plan lost its combined error analysis: %+v", d)
	}

	hist := make([]float64, 256)
	for i := range hist {
		hist[i] = float64(i % 9)
	}
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "sharddb", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, body)
	}
	var ans answerResponse
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != d.Queries {
		t.Fatalf("got %d answers, want %d", len(ans.Answers), d.Queries)
	}

	// Sharded strategies have no joint histogram estimate.
	resp, body = post(t, ts, "/answer", map[string]any{
		"strategy": d.Strategy, "dataset": "sharddb2", "histogram": hist,
		"epsilon": 0.5, "delta": 1e-4, "mode": "estimate",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("estimate on sharded strategy: status %d, want 422: %s", resp.StatusCode, body)
	}

	// Batch releases reuse the shard-parallel release path.
	resp, body = post(t, ts, "/datasets", map[string]any{"name": "regd", "histogram": hist})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, "/release", map[string]any{
		"releases": []map[string]any{
			{"strategy": d.Strategy, "dataset": "regd", "epsilon": 0.2, "delta": 1e-5},
			{"strategy": d.Strategy, "dataset": "regd", "epsilon": 0.2, "delta": 1e-5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release status %d: %s", resp.StatusCode, body)
	}
	var batch batchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Succeeded != 2 || batch.Failed != 0 {
		t.Fatalf("batch outcome %+v", batch)
	}
}

// Concurrent cold /design calls of one spec run one planning run: the
// first becomes the leader, the rest wait for its strategy and are served
// it as cache hits.
func TestConcurrentColdDesignSingleFlight(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	body := []byte(`{"workload":"prefix:64"}`)
	start := make(chan struct{})
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/design", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var d designResponse
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil || resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d, decode error %v", resp.StatusCode, err)
				return
			}
			ids[i] = d.Strategy
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		if ids[i] != ids[0] {
			t.Fatalf("design %d got strategy %q, design 0 got %q", i, ids[i], ids[0])
		}
	}
	if b := s.pl.Builds(); b != 1 {
		t.Fatalf("%d concurrent designs of one spec ran %d builds, want 1", n, b)
	}
	s.mu.RLock()
	stored := len(s.strategies)
	s.mu.RUnlock()
	if stored != 1 {
		t.Fatalf("stored %d strategies, want 1", stored)
	}
}

// A request that waits on a failing design gets the leader's error.
func TestSingleFlightSharesDesignError(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := designRequest{Workload: "prefix:16"}
	key := s.cacheKey(&req, s.hintsFor(&req, mm.Privacy{Epsilon: defaultEpsilon, Delta: defaultDelta}))
	c := &designCall{done: make(chan struct{})}
	s.mu.Lock()
	s.inflight[key] = c
	s.mu.Unlock()
	c.err = designErrorf(http.StatusUnprocessableEntity, "design failed: leader failed")
	close(c.done)

	resp, out := post(t, ts, "/design", map[string]any{"workload": "prefix:16"})
	if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(out, []byte("leader failed")) {
		t.Fatalf("waiter got %d %s, want the leader's 422", resp.StatusCode, out)
	}
	if b := s.pl.Builds(); b != 0 {
		t.Fatalf("waiter ran %d builds of its own", b)
	}
}
