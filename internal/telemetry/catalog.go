package telemetry

// Default is the process-wide registry every instrument point in the
// repository reports through — what GET /metrics serves. Tests that need
// isolation build their own Registry; the catalog below deliberately
// aggregates across engines/managers in one process (deltas sum).
var Default = NewRegistry()

// The metric catalog. One declaration per series the system emits — this
// block is the authoritative companion of the README's metrics table.
var (
	// ---- HTTP layer (internal/server middleware) ----

	HTTPRequests = Default.NewCounterVec("libra_http_requests_total",
		"HTTP requests served, by route pattern, method, and status code.",
		"route", "method", "code")
	HTTPDuration = Default.NewHistogramVec("libra_http_request_duration_seconds",
		"HTTP request latency by route pattern (SSE streams report their full lifetime).",
		nil, "route")
	HTTPInFlight = Default.NewGauge("libra_http_requests_in_flight",
		"HTTP requests currently being served.")

	// ---- Task dispatch (internal/task.Run) ----

	TaskRuns = Default.NewCounterVec("libra_tasks_total",
		"Task envelopes dispatched through task.Run, by kind and outcome (ok|error).",
		"kind", "outcome")
	TaskDuration = Default.NewHistogramVec("libra_task_duration_seconds",
		"End-to-end task.Run latency by kind.",
		nil, "kind")

	// ---- Engine service layer (internal/core.Engine) ----

	EngineCacheHits = Default.NewCounter("libra_engine_cache_hits_total",
		"Engine requests answered from the fingerprint-keyed LRU cache.")
	EngineCacheMisses = Default.NewCounter("libra_engine_cache_misses_total",
		"Engine requests that started a fresh computation.")
	EngineCacheEvictions = Default.NewCounter("libra_engine_cache_evictions_total",
		"LRU cache entries evicted by the capacity bound.")
	EngineCacheEntries = Default.NewGauge("libra_engine_cache_entries",
		"Entries currently held in the engine result cache.")
	EngineCoalesced = Default.NewCounter("libra_engine_coalesced_requests_total",
		"Engine requests that joined an identical in-flight computation (single-flight).")
	EngineInFlight = Default.NewGauge("libra_engine_solves_in_flight",
		"Keyed computations currently in flight (deduplicated).")
	EngineActiveWorkers = Default.NewGauge("libra_engine_active_workers",
		"Engine worker-pool slots currently occupied by a computation — saturation when equal to the configured workers.")
	EngineSolveDuration = Default.NewHistogramVec("libra_engine_solve_duration_seconds",
		"Wall time of fresh engine computations (cache misses), by operation.",
		nil, "op")

	// ---- Solver hot path (internal/opt) ----
	//
	// Everything below is bumped once per solve or per start with plain
	// atomic adds — never inside the PGD/CD/NM inner loops.

	SolverSolves = Default.NewCounter("libra_solver_solves_total",
		"Multistart solves completed.")
	SolverGeneralPathSolves = Default.NewCounter("libra_solver_general_path_solves_total",
		"Solves whose constraint set needed the active-set/Dykstra projection (ordered or pair-sum rows, several general rows, a non-positive coefficient, or an empty set); the rest project exactly by breakpoint search.")
	SolverStarts = Default.NewCounter("libra_solver_starts_total",
		"Local-search starts run; every one is folded into its solve's answer, none is speculative.")
	SolverStartsSkipped = Default.NewCounter("libra_solver_starts_skipped_total",
		"Planned seeds never run, per solve: Starts + N (+1 with a kept warm start) minus the starts run, after a convex early exit, a warm-start cutoff, or seeds that could not be built.")
	SolverWarmSolves = Default.NewCounter("libra_solver_warm_solves_total",
		"Solves that ran with an injected warm start.")
	SolverWarmCuts = Default.NewCounter("libra_solver_warm_cuts_total",
		"Warm-started solves answered by the adaptive cutoff (warm-start hit rate = warm_cuts / warm_solves).")
	SolverPGDIterations = Default.NewCounter("libra_solver_pgd_iterations_total",
		"Projected-gradient-descent iterations executed across all starts (the local search of convex solves).")
	SolverCDIterations = Default.NewCounter("libra_solver_cd_iterations_total",
		"Coordinate-descent sweeps executed across all starts (the local search of non-convex solves and of the coordinate-descent strategy).")
	SolverNMIterations = Default.NewCounter("libra_solver_nm_iterations_total",
		"Nelder-Mead polish iterations executed across all starts.")

	// ---- Sweep fan-outs (frontier/codesign/cluster/validate/sweep) ----

	SweepPoints = Default.NewCounterVec("libra_sweep_points_total",
		"Batch fan-out points landed, by progress stage.",
		"stage")
	SweepCacheHits = Default.NewCounterVec("libra_sweep_cache_hits_total",
		"Batch fan-out points served from the engine result cache, by progress stage.",
		"stage")

	// ---- Persistent result store (internal/store) ----

	StoreHits = Default.NewCounterVec("libra_store_hits_total",
		"Disk-store lookups answered from the persistent cache, by kind.",
		"kind")
	StoreMisses = Default.NewCounterVec("libra_store_misses_total",
		"Disk-store lookups that found no entry, by kind.",
		"kind")
	StoreStale = Default.NewCounterVec("libra_store_stale_total",
		"Disk-store entries skipped at open because another answer epoch wrote them, or an earlier build stamped them with a TTL (never served; the next compaction drops them), by kind.",
		"kind")
	StorePuts = Default.NewCounterVec("libra_store_puts_total",
		"Results spilled to the disk store, by kind.",
		"kind")
	StorePutErrors = Default.NewCounter("libra_store_put_errors_total",
		"Disk-store writes that returned an error: a failed append (the result stayed memory-only) or a failed auto-compaction (the record was appended).")
	StoreCompactions = Default.NewCounter("libra_store_compactions_total",
		"Append-log compactions completed (live entries rewritten, atomic rename over the log).")
	StoreDroppedRecords = Default.NewCounter("libra_store_dropped_records_total",
		"Corrupt or torn log records dropped during open-time recovery.")
	StoreEntries = Default.NewGauge("libra_store_entries",
		"Live entries currently indexed by the disk store.")
	StoreBytes = Default.NewGauge("libra_store_bytes",
		"Bytes in the store's append log.")
	WarmupReplayed = Default.NewCounterVec("libra_warmup_specs_total",
		"Warmup-file specs replayed at boot, by outcome (ok|error|skipped).",
		"outcome")

	// ---- Async jobs (internal/jobs) ----

	JobsSubmitted = Default.NewCounter("libra_jobs_submitted_total",
		"Jobs accepted by Submit.")
	JobsCurrent = Default.NewGaugeVec("libra_jobs_current",
		"Jobs currently retained by the manager, by lifecycle status.",
		"status")
	JobsEvicted = Default.NewCounterVec("libra_jobs_evictions_total",
		"Terminal jobs evicted from the store at the capacity bound, by reason (capacity).",
		"reason")
	JobEvents = Default.NewCounter("libra_job_events_total",
		"Events appended across all job event logs (the SSE fan-out volume).")
	JobWatchers = Default.NewGauge("libra_job_watchers",
		"SSE event-stream watchers currently connected.")

	// ---- Tracing ----

	SpansDropped = Default.NewCounter("libra_trace_spans_dropped_total",
		"Spans dropped because a job's event log hit its per-job span cap.")

	// ---- Process ----
	//
	// ProcessCPU (libra_process_cpu_seconds_total) is declared in
	// rusage.go: it exists only on platforms with getrusage.
)
