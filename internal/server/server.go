// Package server implements the HTTP release engine for batch query
// answering under (ε,δ)-differential privacy — the paper's deployment
// setting grown into a multi-user service: analysts submit a workload
// once, the server adapts and caches a strategy, datasets are uploaded
// once into a registry, and every release spends privacy budget through
// an accountant that enforces per-dataset caps with atomic
// check-reserve-commit semantics (a release that would exceed the cap is
// refused before any noise is drawn).
//
// Strategy selection is delegated to the unified cost-based planner
// (internal/planner): /design builds the workload, passes the request's
// hints (privacy pair, design-time budget, latency target, forced
// generator) to the planner, and executes the returned plan. The server
// itself contains no generator-ordering logic; the response's "planner"
// block reports which generator won, its modeled cost, the chosen
// inference method, and why every other candidate lost. Strategies are
// cached keyed on the canonical (workload spec, hints) pair, so repeated
// /design of the same request returns the cached plan without re-running
// design.
//
// Release noise is drawn from a crypto-seeded source by default. A
// request may pin a deterministic seed (any value, including 0) for
// reproducible experiments against its own inline histogram only:
// releases against registered datasets refuse pinned seeds (403), since a
// requester who knows the seed can subtract the noise and recover the
// exact data at nominal ε cost. Options.AllowSeededReleases re-enables
// them for single-user debug servers. Inline releases are accounted in
// the reserved "adhoc:" namespace, disjoint from registered names, so
// ad-hoc spend can never pre-hollow a cap installed later for the same
// name nor block its registration.
//
// Endpoints (JSON):
//
//	POST /design    {"workload": "allrange:8x16"} or {"rows": [[...]], "shape": [8,16]}
//	                → {"strategy": id, "queries": m, "cells": n, "form": "eigen|principal|hierarchical|sharded",
//	                   "epsilon": ..., "delta": ..., "cached": bool,
//	                   "expectedError": ..., "lowerBound": ...}   (error fields 0 when skipped at scale)
//	                The "planner" block names the winning generator; for
//	                sharded plans (workloads that split into independent
//	                blocks) it also lists "shards": each shard's
//	                generator, cells, queries, inference and cost.
//	POST /datasets  {"name": "adult", "histogram": [...], "cap": {"epsilon": 2, "delta": 1e-3}}
//	                → {"name": ..., "cells": n, "cap": {...}}    cap optional (absent = unlimited)
//	GET  /datasets  → {"<name>": {"cells": n, "cap": {...}, "spent": {...}, "remaining": {...}}, ...}
//	POST /answer    {"strategy": id, "dataset": name, "histogram": [...],
//	                 "epsilon": 0.5, "delta": 1e-4, "seed": 7, "mode": "answers"|"estimate"}
//	                → {"answers": [...], "ledger": {"epsilon": ..., "delta": ...}}
//	                histogram may be omitted for a registered dataset;
//	                mode "estimate" returns the n-cell private histogram
//	                estimate instead of the m workload answers — the right
//	                choice when m is in the millions (sharded strategies
//	                refuse it with 422: they never measure the joint
//	                histogram). 429 with the
//	                remaining budget when the release would exceed the cap;
//	                403 when a seed is pinned on a registered dataset.
//	POST /release   {"releases": [{"strategy": id, "dataset": name, "epsilon": ...,
//	                 "delta": ..., "seed": ..., "mode": ...}, ...], "parallelism": 8}
//	                → {"results": [{"index": i, "status": 200, "answers": [...],
//	                   "ledger": {...}} | {"index": i, "status": ..., "error": ...,
//	                   "remaining": {...}}], "succeeded": n, "failed": n}
//	                batch releases against registered datasets, answered
//	                concurrently with bounded parallelism; each entry is
//	                charged through the accountant independently (failed
//	                entries are refunded, successful ones committed).
//	GET  /ledger    → {"<dataset>": {"epsilon": ..., "delta": ...}, ...}  committed spend
//	                (inline-histogram releases appear under "adhoc:<name>")
//	GET  /plans     → {"dir": ..., "plans": [{"id": ..., "key": ..., "generator": ...,
//	                   "workload": ..., "cells": ..., "sizeBytes": ...}, ...]}
//	                the durable plan store's entries (404 without a store).
//	DELETE /plans/{id}  withdraws one entry from future restarts; strategies
//	                already serving keep serving.
//
// With Options.StoreDir set (amserve -store), designed plans are
// persisted write-behind to a durable plan store and rehydrated into the
// strategy cache on startup, together with the planner's per-generator
// design-throughput calibration — a restarted server answers previously
// designed specs with cached:true and zero generator builds.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	//lint:allow noiserand: workload-spec sampling RNG for /design (query selection, not release noise); seeded deterministically so identical specs cache-hit
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptivemm/internal/accountant"
	"adaptivemm/internal/domain"
	"adaptivemm/internal/fleet"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/planner"
	"adaptivemm/internal/planstore"
	"adaptivemm/internal/registry"
	"adaptivemm/internal/wio"
	"adaptivemm/internal/workload"
)

// persistQueueCap bounds the plan-persistence write-behind queue. The
// queue decouples /design latency from disk: when it is full the
// incoming write is dropped with a logged reason rather than ever
// blocking a design response (the plan stays served from memory; only
// its durability is lost until the next design of the same spec).
const persistQueueCap = 64

// analysisCap is the largest cell count for which the server computes the
// analytic expected error and lower bound at design time (both need an
// O(n³) dense eigendecomposition); past it the fields are reported as 0.
// It is passed to the planner as the plan's analysis cap.
const analysisCap = 512

// maxStoredStrategies bounds the strategy table (and with it the design
// cache, which only references stored ids). Entries are never evicted —
// /answer must keep resolving old ids — so without a bound a client
// could grow server memory without limit through explicit-rows designs
// or by sweeping hint values on one spec.
const maxStoredStrategies = 1 << 16

// maxAnswerRows caps how many values (per-query answers or estimate
// cells) one /answer request may compute and serialize.
const maxAnswerRows = 1 << 20

// adHocPrefix namespaces accountant entries for inline-histogram (ad-hoc)
// releases away from registered dataset names. The separation means
// ad-hoc spend on a name can never pre-hollow a cap installed later for
// the registered dataset of the same name, nor block ("squat") its
// registration; registered names may not start with the prefix.
const adHocPrefix = "adhoc:"

// Limits on permanent server state and request intake. Registered
// histograms and accountant entries are never evicted, so each growth
// path is bounded: without these an unauthenticated client could grow
// the registry or the ad-hoc ledger until the server OOMs.
const (
	// maxRequestBody bounds every request body (histograms dominate:
	// maxHistogramCells JSON numbers at ~25 bytes each fit comfortably).
	maxRequestBody = 64 << 20
	// maxHistogramCells bounds registered histograms; a larger domain
	// could not be released over HTTP anyway (maxAnswerRows).
	maxHistogramCells = maxAnswerRows
	// maxRegisteredDatasets bounds POST /datasets registrations.
	maxRegisteredDatasets = 4096
	// maxTrackedDatasets bounds distinct accountant entries (registered +
	// ad-hoc names); past it, releases under brand-new ad-hoc names are
	// refused.
	maxTrackedDatasets = 1 << 16
)

// Default privacy parameters applied independently when a /design request
// omits one of them (they only drive the reported expected error).
const (
	defaultEpsilon = 0.5
	defaultDelta   = 1e-4
)

// Server holds designed strategies, the strategy cache, the dataset
// registry and the budget accountant. Reads (/answer strategy lookups,
// cache hits) take the read lock, so concurrent releases never serialize
// behind a long-running /design; the registry and accountant have their
// own finer-grained locks.
type Server struct {
	mu         sync.RWMutex
	nextID     int
	strategies map[string]*entry
	// cache maps a canonical (workload spec, hints fingerprint) key to
	// the id of the strategy planned for it, so repeated /design of the
	// same request is O(1) instead of a repeated planning run.
	cache map[string]string
	// inflight maps a design key to the design of it now running, so
	// concurrent cold /design calls of one key run one planning run.
	// Guarded by mu.
	inflight map[string]*designCall

	// pl is the unified cost-based strategy planner every /design goes
	// through; the server adds no generator-ordering logic of its own.
	pl *planner.Planner

	acct *accountant.Accountant
	reg  *registry.Registry
	// regMu serializes dataset registration against the release path's
	// resolve-and-reserve step (see resolveAndReserve), so a cap can
	// never be bypassed by a release racing its installation and the cap
	// is always installed before the dataset becomes resolvable.
	regMu sync.Mutex

	// allowSeeded permits client-pinned noise seeds on releases against
	// registered datasets (see Options.AllowSeededReleases). Never enable
	// on a server guarding shared data.
	allowSeeded bool

	// store is the durable plan store, nil when persistence is off. New
	// plans are persisted through the write-behind queue; on startup the
	// strategy cache and the planner's throughput calibration are
	// rehydrated from it.
	store *planstore.Store
	// persistMu guards persistCh against enqueue-after-Close.
	persistMu     sync.Mutex
	persistCh     chan persistReq
	persistClosed bool
	persistWG     sync.WaitGroup
	logf          func(format string, args ...any)

	// metrics is the server-wide observability core: the metric
	// registry behind GET /metrics and the trace ring behind GET
	// /debug/traces. Built once in Open, read-only afterwards.
	metrics *serverMetrics

	// streamSem bounds concurrent streamed releases (see handleStream):
	// acquired non-blocking, so excess streams fail fast with 503 instead
	// of queuing chunk buffers.
	streamSem chan struct{}

	// byID indexes keyed strategies by their plan content address
	// (planstore.EntryID of the cache key) — the wire identity shard
	// requests and GET /plans/{id}/raw resolve. Guarded by mu.
	byID map[string]planRef

	// fleetSt is the coordinator role (Options.FleetWorkers), workerSt
	// the worker role (Options.CoordinatorURL); both nil on a standalone
	// server. See fleet.go.
	fleetSt  *fleetState
	workerSt *workerFleetState
	// fetched caches plans resolved by content address (local store or
	// coordinator fetch), bounded FIFO; see cacheFetched.
	fetchedMu    sync.Mutex
	fetched      map[string]*planner.Plan
	fetchedOrder []string
}

// persistReq is one queued write-behind persistence job.
type persistReq struct {
	key  string
	plan *planner.Plan
}

// Options configures a Server.
type Options struct {
	// AllowSeededReleases permits client-pinned noise seeds on releases
	// against registered datasets. A pinned seed lets the requester
	// regenerate the noise stream locally, subtract it from the answers
	// and recover the exact data while the accountant charges only the
	// nominal ε — total privacy loss. This is a debug flag for
	// single-user test servers only; reproducible experiments should use
	// the library API, not the multi-user engine. Seeds on inline ad-hoc
	// histograms are always allowed (the client supplied that data).
	AllowSeededReleases bool

	// StoreDir, when non-empty, enables plan persistence: designed plans
	// are written (asynchronously) to a planstore in this directory, and
	// a new server rehydrates its strategy cache and design-throughput
	// calibration from it on startup. Use Open, which can report store
	// errors; NewWithOptions panics on them.
	StoreDir string

	// StoreQuotaBytes, when positive, bounds the plan store's total plan
	// bytes: past the budget, the least-recently-served entries are
	// evicted (amserve -store-quota). 0 means unlimited. Ignored without
	// StoreDir.
	StoreQuotaBytes int64

	// MaxConcurrentStreams bounds how many streamed releases run at once;
	// per-connection streaming memory is ChunkSize × this. 0 applies
	// defaultMaxStreams. Excess streamed requests are refused with 503
	// rather than queued, so they never pile up buffers.
	MaxConcurrentStreams int

	// Logf receives operational messages (rehydration skips, persistence
	// failures). nil means the standard library logger.
	Logf func(format string, args ...any)

	// FleetWorkers lists worker base URLs; non-empty makes this server a
	// fleet coordinator (amserve -workers): sharded plans route their
	// per-shard inference to the fleet, falling back to local inference
	// when a shard's workers are all down.
	FleetWorkers []string

	// CoordinatorURL makes this server a fleet worker of that
	// coordinator (amserve -worker-of): plans referenced by POST /shards
	// that the worker has never seen are fetched from the coordinator by
	// content address.
	CoordinatorURL string

	// FleetTransport overrides the coordinator's HTTP transport for
	// shard requests and health probes — the fault-injection seam
	// (fleet.FaultRoundTripper). nil means http.DefaultTransport.
	FleetTransport http.RoundTripper

	// ShardTimeout bounds one remote shard attempt; 0 applies
	// fleet.DefaultShardTimeout.
	ShardTimeout time.Duration

	// FleetRequireRemote disables the coordinator's local-inference
	// fallback so a fleet-wide failure fails the release instead of
	// degrading it. For tests proving budget settlement; production
	// coordinators keep the fallback.
	FleetRequireRemote bool

	// FleetProbeInterval is the coordinator's background health re-probe
	// period: 0 applies the default (2s), negative disables the loop
	// (deterministic tests; traffic still re-probes via backoff expiry).
	FleetProbeInterval time.Duration
}

// entry wraps one stored plan. The plan carries the workload, the
// prepared mechanism, the chosen generator and inference method, and the
// per-privacy-pair memoized error analysis — everything the release path
// needs without re-deciding anything.
type entry struct {
	plan *planner.Plan
}

// Budget is cumulative privacy spend under basic sequential composition.
type Budget struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

func fromAcct(b accountant.Budget) Budget { return Budget{Epsilon: b.Epsilon, Delta: b.Delta} }

// New returns an empty server with default (production) options.
func New() *Server {
	return NewWithOptions(Options{})
}

// NewWithOptions returns an empty server configured by opts. It panics
// if opts.StoreDir cannot be opened; servers with persistence should use
// Open and handle the error.
func NewWithOptions(opts Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns a server configured by opts. With a StoreDir it opens the
// plan store, restores the planner's per-generator design-throughput
// calibration, rehydrates every compatible stored plan into the strategy
// cache (corrupt or incompatible entries are skipped with a logged
// reason), and starts the write-behind persistence worker.
func Open(opts Options) (*Server, error) {
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	maxStreams := opts.MaxConcurrentStreams
	if maxStreams <= 0 {
		maxStreams = defaultMaxStreams
	}
	s := &Server{
		strategies:  map[string]*entry{},
		cache:       map[string]string{},
		inflight:    map[string]*designCall{},
		byID:        map[string]planRef{},
		pl:          planner.New(planner.Config{}),
		acct:        accountant.New(),
		reg:         registry.New(),
		allowSeeded: opts.AllowSeededReleases,
		logf:        logf,
		streamSem:   make(chan struct{}, maxStreams),
	}
	// The metrics core exists before any role wiring or rehydration so
	// every later step (fleet counters, stage timers on rehydrated
	// plans, store eviction counting) registers against it.
	s.metrics = newServerMetrics(s)
	if len(opts.FleetWorkers) > 0 && opts.CoordinatorURL != "" {
		return nil, fmt.Errorf("server: a fleet coordinator cannot also be a worker; -workers and -worker-of are mutually exclusive")
	}
	if len(opts.FleetWorkers) > 0 {
		client := fleet.NewClient(opts.FleetWorkers, &http.Client{Transport: opts.FleetTransport}, opts.ShardTimeout)
		if len(client.Registry.URLs()) == 0 {
			return nil, fmt.Errorf("server: fleet coordinator configured with no usable worker URLs")
		}
		s.fleetSt = &fleetState{
			client:        client,
			requireRemote: opts.FleetRequireRemote,
			stop:          make(chan struct{}),
		}
		s.metrics.registerFleetMetrics(s.fleetSt)
		interval := opts.FleetProbeInterval
		if interval == 0 {
			interval = defaultProbeInterval
		}
		if interval > 0 {
			s.startFleetProbes(interval)
		}
	}
	if opts.CoordinatorURL != "" {
		s.workerSt = &workerFleetState{
			coordinator: strings.TrimRight(opts.CoordinatorURL, "/"),
			hc:          &http.Client{Timeout: 30 * time.Second},
		}
		s.metrics.registerWorkerMetrics(s.workerSt)
	}
	if opts.StoreDir == "" {
		return s, nil
	}
	store, err := planstore.Open(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	s.store = store
	if opts.StoreQuotaBytes > 0 {
		// Every quota-eviction log line counts once in
		// am_store_evictions_total on its way to the store component log.
		store.SetQuota(opts.StoreQuotaBytes, func(format string, args ...any) {
			s.metrics.evictions.Inc()
			s.warnf(compStore, format, args...)
		})
	}
	if rates, err := store.LoadCalibration(); err != nil {
		s.warnf(compStore, "ignoring design-throughput calibration: %v", err)
	} else if len(rates) > 0 {
		s.pl.RestoreRates(rates)
	}
	loaded, err := store.LoadAll(func(format string, args ...any) {
		s.warnf(compStore, format, args...)
	})
	if err != nil {
		return nil, err
	}
	for _, l := range loaded {
		if len(s.strategies) >= maxStoredStrategies {
			s.warnf(compStore, "strategy table full at %d entries; remaining stored plans not rehydrated", maxStoredStrategies)
			break
		}
		s.nextID++
		id := fmt.Sprintf("s%d", s.nextID)
		ent := &entry{plan: l.Plan}
		s.instrumentPlan(ent.plan.Mechanism)
		s.strategies[id] = ent
		s.cache[l.Meta.Key] = id
		s.recordPlanID(l.Meta.Key, ent)
		s.attachFleet(l.Meta.Key, ent)
	}
	if len(loaded) > 0 {
		s.infof(compStore, "rehydrated %d plan(s) from %s", len(loaded), opts.StoreDir)
	}
	s.persistCh = make(chan persistReq, persistQueueCap)
	s.persistWG.Add(1)
	go s.persistLoop()
	return s, nil
}

// persistLoop is the write-behind worker: it drains the queue, writing
// each plan and a fresh calibration snapshot to the store. Persistence
// failures are logged, never surfaced to the designing client (the plan
// is already serving from memory).
func (s *Server) persistLoop() {
	defer s.persistWG.Done()
	for req := range s.persistCh {
		if _, err := s.store.Put(req.key, req.plan); err != nil {
			s.warnf(compPersist, "persisting plan %q: %v", req.key, err)
			continue
		}
		if err := s.store.SaveCalibration(s.pl.RateSnapshot()); err != nil {
			s.warnf(compPersist, "persisting calibration: %v", err)
		}
	}
}

// enqueuePersist hands a freshly designed plan to the write-behind
// worker. It never blocks: with the queue full the write is dropped with
// a logged reason (the plan still serves from memory; durability catches
// up on the next design of the same spec).
func (s *Server) enqueuePersist(key string, plan *planner.Plan) {
	if s.store == nil || key == "" {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.persistClosed {
		return
	}
	select {
	case s.persistCh <- persistReq{key: key, plan: plan}:
	default:
		s.metrics.persistDrops.Inc()
		s.warnf(compPersist, "plan-persistence queue full (%d pending); dropping write for %q", persistQueueCap, key)
	}
}

// Close stops the fleet's background health probes, flushes the
// plan-persistence write-behind queue and saves a final calibration
// snapshot. The HTTP handler must be drained first
// (http.Server.Shutdown). It is safe to call on a server without a
// store, and more than once.
func (s *Server) Close() error {
	s.stopFleet()
	if s.store == nil {
		return nil
	}
	s.persistMu.Lock()
	if s.persistClosed {
		s.persistMu.Unlock()
		return nil
	}
	s.persistClosed = true
	close(s.persistCh)
	s.persistMu.Unlock()
	s.persistWG.Wait()
	return s.store.SaveCalibration(s.pl.RateSnapshot())
}

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/design", s.handleDesign)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/answer", s.handleAnswer)
	mux.HandleFunc("/release", s.handleRelease)
	mux.HandleFunc("/ledger", s.handleLedger)
	mux.HandleFunc("/plans", s.handlePlans)
	mux.HandleFunc("/plans/", s.handlePlanByID)
	mux.HandleFunc("/fleet", s.handleFleet)
	mux.HandleFunc("/shards/", s.handleShard)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	return s.metrics.wrap(http.MaxBytesHandler(mux, maxRequestBody))
}

// decodeJSON decodes the request body into v, writing the error response
// (413 for oversized bodies, 400 otherwise) itself; callers just return
// on false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte cap", mbe.Limit)
		} else {
			httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		}
		return false
	}
	return true
}

type designRequest struct {
	// Workload is a compact spec like "allrange:8x16" (see wio).
	Workload string `json:"workload,omitempty"`
	// Rows + Shape provide an explicit query matrix instead.
	Rows  [][]float64 `json:"rows,omitempty"`
	Shape []int       `json:"shape,omitempty"`
	// Seed drives randomized workload specs.
	Seed int64 `json:"seed,omitempty"`
	// Epsilon/Delta are used only to report the expected error. Each
	// defaults independently when omitted.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// MaxDesignMillis bounds how long strategy design may take: the
	// planner skips generators whose modeled cost exceeds it. 0 applies
	// the default design budget.
	MaxDesignMillis int64 `json:"maxDesignMillis,omitempty"`
	// LatencyTargetMillis is the per-release latency to aim for; a tight
	// target makes the plan prepare the dense pseudo-inverse when the
	// strategy fits it.
	LatencyTargetMillis int64 `json:"latencyTargetMillis,omitempty"`
	// Generator forces a named planner generator instead of the
	// cost-based choice.
	Generator string `json:"generator,omitempty"`
}

// plannerReport is the /design response block naming the winning
// generator and why every other candidate lost. For sharded plans it
// also lists each shard's generator, cost and inference method.
type plannerReport struct {
	Generator    string              `json:"generator"`
	Note         string              `json:"note,omitempty"`
	ModeledCost  float64             `json:"modeledCost"`
	DesignMillis float64             `json:"designMillis"`
	Inference    string              `json:"inference"`
	Shards       []planner.ShardInfo `json:"shards,omitempty"`
	Considered   []planner.Decision  `json:"considered,omitempty"`
}

type designResponse struct {
	Strategy string `json:"strategy"`
	Queries  int    `json:"queries"`
	Cells    int    `json:"cells"`
	// Form is the legacy short name of the winning generator ("eigen",
	// "principal", "hierarchical", ...); see Planner for the full report.
	Form string `json:"form"`
	// Epsilon/Delta echo the privacy pair the error analysis used,
	// including any defaulted component.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// Cached reports that the strategy came from the cache, not a fresh
	// planning run.
	Cached        bool    `json:"cached"`
	ExpectedError float64 `json:"expectedError"`
	LowerBound    float64 `json:"lowerBound"`
	// Planner reports which generator won, its modeled cost and the
	// chosen inference method, plus every candidate's admission outcome.
	Planner plannerReport `json:"planner"`
}

// formFor maps generator names onto the legacy "form" field values.
func formFor(generator string) string {
	switch generator {
	case "eigen-separation":
		return "separated"
	case "principal-vectors":
		return "principal"
	default:
		return generator
	}
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req designRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Default each privacy field independently: a request carrying only ε
	// (or only δ) is valid and must not reach the error analysis as an
	// invalid pair.
	p := mm.Privacy{Epsilon: req.Epsilon, Delta: req.Delta}
	if p.Epsilon == 0 {
		p.Epsilon = defaultEpsilon
	}
	if p.Delta == 0 {
		p.Delta = defaultDelta
	}
	if err := p.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hints := s.hintsFor(&req, p)
	id, ent, cached, derr := s.design(&req, hints)
	if derr != nil {
		httpError(w, derr.status, "%s", derr.msg)
		return
	}
	s.respondDesign(w, id, ent, p, cached)
}

// designError is a failed design with the HTTP status it answers, shared
// by every request that waited on the same design.
type designError struct {
	status int
	msg    string
}

func designErrorf(status int, format string, args ...any) *designError {
	return &designError{status: status, msg: fmt.Sprintf(format, args...)}
}

// designCall is one running design of a key. Requests for the same key
// wait on done, then read the strategy cache (or err).
type designCall struct {
	done chan struct{}
	err  *designError
}

// design returns the strategy for a design request: the cached one for
// its key, the result of a running design of the same key, or a fresh
// planning run. cached reports that this request ran no design itself.
// Explicit-rows requests have no key and always plan.
func (s *Server) design(req *designRequest, hints planner.Hints) (string, *entry, bool, *designError) {
	key := s.cacheKey(req, hints)
	if key == "" {
		id, ent, derr := s.runDesign(req, hints, key)
		return id, ent, false, derr
	}
	for {
		s.mu.RLock()
		id, ent := s.cached(key)
		s.mu.RUnlock()
		if ent != nil {
			s.metrics.cacheHits.Inc()
			if s.store != nil {
				// A cache hit is this plan being served: protect its stored
				// entry from quota eviction.
				s.store.Touch(planstore.EntryID(key))
			}
			return id, ent, true, nil
		}
		s.mu.Lock()
		if _, ent := s.cached(key); ent != nil {
			s.mu.Unlock()
			continue // stored since the read-locked look
		}
		if c := s.inflight[key]; c != nil {
			s.mu.Unlock()
			<-c.done
			if c.err != nil {
				return "", nil, false, c.err
			}
			continue // the leader stored its strategy: serve it as a hit
		}
		c := &designCall{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()
		return s.lead(c, req, hints, key)
	}
}

// lead runs the design of key as the single flight c, then releases the
// requests waiting on c.
func (s *Server) lead(c *designCall, req *designRequest, hints planner.Hints, key string) (id string, ent *entry, cached bool, derr *designError) {
	defer func() {
		// Deferred so a panicking design still releases its waiters; they
		// then find no strategy and plan again themselves.
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		c.err = derr
		close(c.done)
	}()
	id, ent, derr = s.runDesign(req, hints, key)
	return id, ent, false, derr
}

// cached returns the strategy stored for key, if any. The caller holds mu.
func (s *Server) cached(key string) (string, *entry) {
	id, ok := s.cache[key]
	if !ok {
		return "", nil
	}
	return id, s.strategies[id]
}

// runDesign plans a design request and stores the strategy, under key in
// the cache when key is not empty.
func (s *Server) runDesign(req *designRequest, hints planner.Hints, key string) (string, *entry, *designError) {
	// Refuse before planning: a server at its strategy bound must not
	// burn a full (possibly O(n³)) design per rejected request.
	s.mu.RLock()
	full := len(s.strategies) >= maxStoredStrategies
	s.mu.RUnlock()
	if full {
		return "", nil, designErrorf(http.StatusInsufficientStorage,
			"server stores its limit of %d strategies; reuse an existing strategy id", maxStoredStrategies)
	}

	wl, err := s.buildWorkload(req)
	if err != nil {
		return "", nil, designErrorf(http.StatusBadRequest, "%v", err)
	}
	if !wl.Answerable() {
		return "", nil, designErrorf(http.StatusUnprocessableEntity, "workload %q is analyzable only, not answerable", wl.Name())
	}

	s.metrics.cacheMisses.Inc()
	t0 := time.Now()
	plan, err := s.pl.Plan(wl, hints)
	if err != nil {
		return "", nil, designErrorf(http.StatusUnprocessableEntity, "design failed: %v", err)
	}
	s.metrics.designSec.ObserveSince(t0)
	if c, ok := s.metrics.designs[plan.Generator]; ok {
		c.Inc()
	}
	ent := &entry{plan: plan}
	s.instrumentPlan(plan.Mechanism)

	s.mu.Lock()
	if len(s.strategies) >= maxStoredStrategies {
		s.mu.Unlock()
		return "", nil, designErrorf(http.StatusInsufficientStorage,
			"server stores its limit of %d strategies; reuse an existing strategy id", maxStoredStrategies)
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	s.strategies[id] = ent
	if key != "" {
		s.cache[key] = id
		s.recordPlanID(key, ent)
	}
	s.mu.Unlock()

	// A sharded plan on a coordinator routes through the fleet from its
	// first release.
	s.attachFleet(key, ent)

	// Durability is write-behind: the response never waits on disk.
	s.enqueuePersist(key, plan)
	return id, ent, nil
}

// hintsFor translates the request's knobs into planner hints.
func (s *Server) hintsFor(req *designRequest, p mm.Privacy) planner.Hints {
	return planner.Hints{
		Privacy:       p,
		MaxDesignTime: time.Duration(req.MaxDesignMillis) * time.Millisecond,
		LatencyTarget: time.Duration(req.LatencyTargetMillis) * time.Millisecond,
		Generator:     req.Generator,
		AnalysisCap:   analysisCap,
	}
}

// cacheKey returns the canonical cache key for a spec-based design
// request — the workload spec (with sampling seed) plus the hint
// fingerprint — or "" when the request is not cacheable (explicit rows).
// The privacy pair is deliberately not part of the key: it never changes
// the winning generator, and per-pair error analyses are memoized on the
// plan.
func (s *Server) cacheKey(req *designRequest, hints planner.Hints) string {
	if req.Workload == "" || req.Rows != nil {
		return ""
	}
	// The construction is shared with the plan store (and amdesign -save)
	// so offline-designed plans land in the cache slot a /design of the
	// same spec looks up.
	return planstore.CanonicalKey(req.Workload, req.Seed, hints.Fingerprint())
}

// respondDesign writes the design response; the error analysis for the
// requested privacy pair is memoized on the plan.
func (s *Server) respondDesign(w http.ResponseWriter, id string, ent *entry, p mm.Privacy, cached bool) {
	plan := ent.plan
	expected, err := plan.ExpectedError(p)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "error analysis: %v", err)
		return
	}
	writeJSON(w, designResponse{
		Strategy:      id,
		Queries:       plan.Workload.NumQueries(),
		Cells:         plan.Workload.Cells(),
		Form:          formFor(plan.Generator),
		Epsilon:       p.Epsilon,
		Delta:         p.Delta,
		Cached:        cached,
		ExpectedError: expected,
		LowerBound:    plan.LowerBound(p),
		Planner: plannerReport{
			Generator:    plan.Generator,
			Note:         plan.Note,
			ModeledCost:  plan.ModeledCost,
			DesignMillis: float64(plan.DesignTime) / float64(time.Millisecond),
			Inference:    plan.Inference.String(),
			Shards:       plan.Shards,
			Considered:   plan.Decisions,
		},
	})
}

func (s *Server) buildWorkload(req *designRequest) (*workload.Workload, error) {
	switch {
	case req.Workload != "" && req.Rows != nil:
		return nil, fmt.Errorf("provide either workload or rows, not both")
	case req.Workload != "":
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		return wio.ParseWorkloadSpec(req.Workload, rand.New(rand.NewSource(seed)))
	case req.Rows != nil:
		if len(req.Shape) == 0 {
			return nil, fmt.Errorf("rows require a shape")
		}
		shape, err := domain.NewShape(req.Shape...)
		if err != nil {
			return nil, err
		}
		if len(req.Rows) == 0 {
			return nil, fmt.Errorf("rows must be non-empty with %d columns", shape.Size())
		}
		// Every row must match the domain: a single ragged row would
		// otherwise reach the dense constructor undetected.
		for i, row := range req.Rows {
			if len(row) != shape.Size() {
				return nil, fmt.Errorf("row %d has %d columns, want %d", i, len(row), shape.Size())
			}
		}
		return workload.FromMatrix("custom", shape, linalg.NewFromRows(req.Rows)), nil
	default:
		return nil, fmt.Errorf("empty design request")
	}
}

// --- dataset registry endpoints ---

type datasetRequest struct {
	Name      string    `json:"name"`
	Histogram []float64 `json:"histogram"`
	// Cap is an optional per-dataset privacy budget cap; a zero or absent
	// component is unlimited.
	Cap *Budget `json:"cap,omitempty"`
}

type datasetResponse struct {
	Name  string  `json:"name"`
	Cells int     `json:"cells"`
	Cap   *Budget `json:"cap,omitempty"`
}

type datasetInfo struct {
	Cells     int     `json:"cells"`
	Cap       *Budget `json:"cap,omitempty"`
	Spent     Budget  `json:"spent"`
	Remaining *Budget `json:"remaining,omitempty"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req datasetRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		// Validate up front so the cap is never installed for a
		// registration that cannot complete.
		if req.Name == "" {
			httpError(w, http.StatusBadRequest, "registry: dataset name required")
			return
		}
		if strings.HasPrefix(req.Name, adHocPrefix) {
			// The prefix is the accountant namespace for inline releases; a
			// registered name inside it could collide with (and be charged
			// by) some other name's ad-hoc spend.
			httpError(w, http.StatusBadRequest,
				"registry: dataset names starting with %q are reserved for ad-hoc release accounting", adHocPrefix)
			return
		}
		if len(req.Histogram) == 0 {
			httpError(w, http.StatusBadRequest, "registry: dataset %q has an empty histogram", req.Name)
			return
		}
		if len(req.Histogram) > maxHistogramCells {
			httpError(w, http.StatusRequestEntityTooLarge,
				"registry: histogram has %d cells, past the %d-cell cap (larger domains cannot be released over HTTP)",
				len(req.Histogram), maxHistogramCells)
			return
		}
		if req.Cap != nil {
			// The accountant treats non-positive components as unlimited,
			// so a typo like {"epsilon": -1} would silently uncap the
			// dataset; reject it, and reject the all-zero cap for the same
			// reason (omit cap entirely for an unlimited dataset).
			if req.Cap.Epsilon < 0 || req.Cap.Delta < 0 {
				httpError(w, http.StatusBadRequest,
					"registry: cap components must be non-negative, got (ε=%g, δ=%g)", req.Cap.Epsilon, req.Cap.Delta)
				return
			}
			if req.Cap.Epsilon == 0 && req.Cap.Delta == 0 {
				httpError(w, http.StatusBadRequest,
					"registry: cap must bound at least one of ε, δ; omit the cap for an unlimited dataset")
				return
			}
		}
		s.regMu.Lock()
		defer s.regMu.Unlock()
		if _, err := s.reg.Get(req.Name); err == nil {
			// Refuse before touching the accountant: a failed duplicate
			// registration must not alter the existing dataset's cap.
			httpError(w, http.StatusConflict, "%v: %q", registry.ErrExists, req.Name)
			return
		}
		// Registered histograms are retained for the server's lifetime, so
		// the registry is bounded too.
		if s.reg.Len() >= maxRegisteredDatasets {
			httpError(w, http.StatusInsufficientStorage,
				"registry holds its limit of %d datasets", maxRegisteredDatasets)
			return
		}
		// Install the cap before the dataset becomes visible to releases:
		// a release can only reserve after reg.Get succeeds, so it always
		// sees the cap.
		if req.Cap != nil {
			if err := s.acct.SetCap(req.Name, accountant.Budget{Epsilon: req.Cap.Epsilon, Delta: req.Cap.Delta}); err != nil {
				// Unreachable after the validation above; refuse anyway
				// rather than register uncapped.
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if err := s.reg.Put(req.Name, req.Histogram); err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, registry.ErrExists) {
				code = http.StatusConflict
			}
			httpError(w, code, "%v", err)
			return
		}
		writeJSON(w, datasetResponse{Name: req.Name, Cells: len(req.Histogram), Cap: req.Cap})
	case http.MethodGet:
		out := map[string]datasetInfo{}
		for _, name := range s.reg.Names() {
			d, err := s.reg.Get(name)
			if err != nil {
				continue
			}
			info := datasetInfo{Cells: d.Cells(), Spent: fromAcct(s.acct.Spent(name))}
			if cap, ok := s.acct.Cap(name); ok {
				b := fromAcct(cap)
				info.Cap = &b
			}
			if rem, ok := s.acct.Remaining(name); ok {
				b := fromAcct(rem)
				info.Remaining = &b
			}
			out[name] = info
		}
		writeJSON(w, out)
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or GET required")
	}
}

// --- plan-store endpoints ---

// plansResponse lists the durable plan store's entries.
type plansResponse struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Plans lists each entry's id (the DELETE handle), cache key,
	// generator, workload fingerprint and size.
	Plans []planstore.Meta `json:"plans"`
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.store == nil {
		httpError(w, http.StatusNotFound, "no plan store configured (start the server with a store directory)")
		return
	}
	metas, err := s.store.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "listing plan store: %v", err)
		return
	}
	if metas == nil {
		metas = []planstore.Meta{}
	}
	writeJSON(w, plansResponse{Dir: s.store.Dir(), Plans: metas})
}

// handlePlanByID dispatches the by-id plan routes:
//
//	GET    /plans/{id}      one entry's stored metadata
//	GET    /plans/{id}/raw  the entry's verified encoded bytes — the
//	                        fleet's plan-distribution payload
//	DELETE /plans/{id}      withdraw the entry from future restarts
//
// A strategy already rehydrated or designed in this process keeps
// serving after DELETE — /answer ids stay valid for the server's
// lifetime; only durability is withdrawn. A GET racing quota eviction
// gets a 404 naming the eviction, never a 500: listing and loading are
// deliberately not atomic (see planstore.Store).
func (s *Server) handlePlanByID(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/plans/"), "/")
	if id == "" {
		httpError(w, http.StatusBadRequest, "/plans/{id} with an id from GET /plans")
		return
	}
	switch {
	case r.Method == http.MethodGet && sub == "raw":
		s.handlePlanRaw(w, id)
	case r.Method == http.MethodGet && sub == "":
		s.handlePlanMeta(w, id)
	case r.Method == http.MethodDelete && sub == "":
		s.handlePlanDelete(w, id)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or DELETE /plans/{id}, or GET /plans/{id}/raw")
	}
}

// planNotFound writes the by-id 404, naming the quota eviction when the
// store remembers one — the answer to "GET /plans listed it a moment
// ago" is "the quota evicted it in between", not a server error.
func (s *Server) planNotFound(w http.ResponseWriter, id string) {
	if s.store != nil {
		if t, ok := s.store.Evicted(id); ok {
			httpError(w, http.StatusNotFound,
				"plan %q was evicted by the store quota at %s; re-design its workload to restore it",
				id, t.UTC().Format(time.RFC3339))
			return
		}
	}
	httpError(w, http.StatusNotFound, "no stored plan %q", id)
}

func (s *Server) handlePlanMeta(w http.ResponseWriter, id string) {
	if s.store == nil {
		httpError(w, http.StatusNotFound, "no plan store configured (start the server with a store directory)")
		return
	}
	meta, err := s.store.Stat(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.planNotFound(w, id)
		} else {
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, meta)
}

// handlePlanRaw serves the entry's verified encoded bytes. The store is
// preferred; a coordinator without a store (or whose entry was evicted)
// re-encodes the in-memory plan, so workers can always fetch any plan
// the coordinator is actively serving.
func (s *Server) handlePlanRaw(w http.ResponseWriter, id string) {
	if !planstore.ValidID(id) {
		httpError(w, http.StatusBadRequest, "plan id %q is not a content address", id)
		return
	}
	var storeErr error
	if s.store != nil {
		blob, err := s.store.GetRaw(id)
		if err == nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
			_, _ = w.Write(blob)
			return
		}
		storeErr = err
	}
	s.mu.RLock()
	ref, ok := s.byID[id]
	s.mu.RUnlock()
	if ok {
		blob, _, err := planstore.EncodeEntry(ref.key, ref.ent.plan, time.Now())
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encoding plan %s: %v", id, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		_, _ = w.Write(blob)
		return
	}
	if storeErr != nil && !errors.Is(storeErr, os.ErrNotExist) {
		httpError(w, http.StatusInternalServerError, "reading stored plan %s: %v", id, storeErr)
		return
	}
	s.planNotFound(w, id)
}

func (s *Server) handlePlanDelete(w http.ResponseWriter, id string) {
	if s.store == nil {
		httpError(w, http.StatusNotFound, "no plan store configured (start the server with a store directory)")
		return
	}
	if err := s.store.Delete(id); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.planNotFound(w, id)
		} else {
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, map[string]string{"deleted": id})
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := map[string]Budget{}
	for _, name := range s.acct.Datasets() {
		spent := s.acct.Spent(name)
		if spent.Epsilon == 0 && spent.Delta == 0 {
			// Tracked but never charged (e.g. only refunded releases):
			// not yet part of the spend ledger.
			continue
		}
		out[name] = fromAcct(spent)
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; nothing more to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
