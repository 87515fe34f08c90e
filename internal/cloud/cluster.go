// Package cloud implements the paper's §5 future-work deployment scenario:
// "we plan to apply PowerLens in cloud servers, where more complex and
// diverse tasks can yield greater benefits". A Cluster models a rack of
// identical accelerator nodes fed by a stream of inference jobs; a
// dispatcher assigns each job to the earliest-available node, and every node
// is simulated with the same executor/governor machinery as the
// single-board experiments. Cluster-level energy, makespan, and turnaround
// compare DVFS policies at fleet scale.
//
// With a nonzero fault schedule (Config.Faults) the cluster additionally
// models node loss: nodes crash at seeded, deterministic times, jobs caught
// mid-flight fail over to surviving nodes (their partial work's energy is
// attributed to the run as lost work), and per-node executors inject the
// sensor/actuation faults of internal/hw. Zero-schedule runs are
// bit-identical to the fault-free dispatcher.
package cloud

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// Job is one inference request: a model, an image count, and an arrival
// time relative to the start of the trace.
type Job struct {
	Graph   *graph.Graph
	Images  int
	Arrival time.Duration
}

// ControllerFactory builds a fresh controller per node (controllers are
// stateful, so nodes cannot share one).
type ControllerFactory func() sim.Controller

// Config describes the cluster.
type Config struct {
	Nodes    int
	Platform *hw.Platform
	NewCtl   ControllerFactory
	// Batch applies the §5 batching extension on every node (0/1 = off).
	Batch int
	// Faults is the deterministic fault schedule: per-node executor faults
	// (sensor noise/dropout, actuation faults) plus scheduled node crashes.
	// The zero value reproduces the fault-free dispatcher bit-for-bit.
	Faults hw.FaultConfig
	// Obs, when non-nil, streams the job lifecycle (dispatch spans, crash /
	// failover / drop instants on per-node tracks) and fleet counters into
	// the observability layer. Each node's executor emits on its own derived
	// track, so the trace is deterministic for a fixed seed despite nodes
	// simulating concurrently.
	Obs *obs.Observer
	// Ledger, when non-nil, receives the fleet's merged energy/latency
	// attribution: each node's executor records into a private per-node
	// ledger, and the pieces are merged here in node order after the
	// simulation. The ledger's integral cell state makes the merged result
	// byte-identical at any shard count.
	Ledger *ledger.Ledger
	// Audit, when non-nil, receives the fleet's merged decision-audit trail:
	// each node's executor records into a private recorder (same Config, one
	// track per node at nodeTrackBase+n), merged here in node order after the
	// simulation. Aggregate families (applies, guard events, calibration) are
	// integral and node-agnostic, so they are byte-identical at any shard
	// count; per-track rings follow job placement, which the sharded
	// dispatcher varies with Shards — run the recorder in aggregate-only mode
	// (Config.RingSize < 0) when comparing exports across shard counts.
	Audit *audit.Recorder

	// Macro, when non-nil, is the shared flow-summary cache threaded through
	// every executor the run creates — the dry-run service probes and the
	// per-node task-flow simulations, on both dispatchers — enabling the
	// analytic fast-forward of sim (macro.go) with single-flight fill across
	// nodes. Macro runs force SensorPeriod=0 on those executors (the
	// per-node power-sample trace is incompatible with fast-forward), so set
	// TraceOff on a reference run when byte-comparing macro against micro.
	// Executors that demote (a controller that is not sim.MacroSteppable,
	// such as a governor.Guard; fault injection, obs, audit) micro-step
	// without touching the cache; results are bit-identical either way.
	Macro *sim.SummaryCache
	// TraceOff disables the per-node power-sample trace without enabling
	// macro-stepping: the micro-stepped reference configuration for
	// macro-vs-micro identity checks.
	TraceOff bool

	// Shards > 1 enables the sharded work-stealing dispatcher (dispatch.go):
	// nodes are partitioned round-robin into shards, jobs are admitted in
	// arrival-ordered batches, each shard dispatches to its own nodes
	// concurrently, and a seeded, deterministic steal phase rebalances queues
	// between rounds. 0 or 1 selects the single queue, one FCFS pass over
	// the whole fleet; both dispatchers place jobs with the same routine.
	// Shards above Nodes is clamped to Nodes, so one node always runs the
	// single queue.
	Shards int
	// AdmitBatch is the number of jobs admitted per sharded dispatch round
	// (default 32; ignored by the single-queue dispatcher).
	AdmitBatch int
	// StealSeed seeds each shard's victim order for work stealing
	// (default 1; ignored by the single-queue dispatcher).
	StealSeed int64

	// grids is the run's cost-grid set: Run builds one and every executor
	// the run creates — dry-run probes and node simulations, on both
	// dispatchers — prices its layers from it, so each distinct (model,
	// batch) is priced once per run. Tests preset it to count the builds.
	grids *sim.CostGrids
}

// Trace track-ID scheme: job lifecycle events for node n go on track
// jobTrackBase+n, the node's executor internals on nodeTrackBase+n, and
// dropped jobs on track 0 — all clear of track 1, which single-node
// experiments use, so a shared observer never interleaves tracks.
const (
	jobTrackBase  = 10
	nodeTrackBase = 100
)

// NodeResult is one node's simulated outcome.
type NodeResult struct {
	Node    int
	Jobs    int
	Result  sim.Result
	BusyEnd time.Duration // when the node finished its last job

	// Crash accounting (zero unless the fault schedule lost this node).
	Crashed bool
	CrashAt time.Duration
}

// Result aggregates a cluster run.
type Result struct {
	Nodes []NodeResult

	TotalEnergyJ   float64
	TotalImages    int
	Makespan       time.Duration // latest node completion
	MeanTurnaround time.Duration // mean (completion - arrival) over completed jobs

	// Degraded-mode accounting (all zero on a fault-free run).
	NodesLost   int           // nodes that crashed during the trace
	Failovers   int           // jobs requeued to surviving nodes after a crash
	DroppedJobs int           // jobs lost because no node could take them
	LostEnergyJ float64       // energy burned on work destroyed by crashes
	LostImages  int           // images whose processing was destroyed by crashes
	Faults      hw.FaultStats // executor-level fault counters, summed over nodes

	// QoS accounting, summed over nodes (see sim.Result).
	Passes        int
	QoSViolations int
}

// EE returns cluster-level images per joule. Energy spent on lost work
// counts toward the denominator — degraded runs pay for what they burned.
func (r Result) EE() float64 {
	if r.TotalEnergyJ <= 0 {
		return 0
	}
	return float64(r.TotalImages) / r.TotalEnergyJ
}

// Headline returns the cluster run's headline metrics as a flat name→value
// map, the snapshot a run manifest (obs/runlog) records alongside the
// single-node flow's sim.Result.Headline.
func (r Result) Headline() map[string]float64 {
	h := map[string]float64{
		"nodes":          float64(len(r.Nodes)),
		"images":         float64(r.TotalImages),
		"energy_j":       r.TotalEnergyJ,
		"ee_img_per_j":   r.EE(),
		"makespan_s":     r.Makespan.Seconds(),
		"turnaround_s":   r.MeanTurnaround.Seconds(),
		"nodes_lost":     float64(r.NodesLost),
		"failovers":      float64(r.Failovers),
		"dropped_jobs":   float64(r.DroppedJobs),
		"lost_energy_j":  r.LostEnergyJ,
		"passes":         float64(r.Passes),
		"qos_violations": float64(r.QoSViolations),
	}
	if r.Passes > 0 {
		h["qos_violation_rate"] = float64(r.QoSViolations) / float64(r.Passes)
	} else {
		h["qos_violation_rate"] = 0
	}
	return h
}

// svcKey identifies a dry-run service time: the graph's canonical digest plus
// the image count. The digest — not the model name — is the identity: two
// registered configurations can share a name while differing in structure, and
// keying on the name alone would serve one config's latency and energy to the
// other's dispatch decisions.
type svcKey struct {
	digest uint64
	images int
}

// svcKeys memoizes graph digests by pointer for one run. Writes happen only in
// sequential phases (the single queue's probes; runSharded's fill-phase scan,
// which keys every batch job before the concurrent phases start), so the
// concurrent dispatch phase only ever reads the memo.
type svcKeys struct {
	digests map[*graph.Graph]uint64
}

func newSvcKeys() *svcKeys { return &svcKeys{digests: map[*graph.Graph]uint64{}} }

func (s *svcKeys) key(j Job) svcKey {
	d, ok := s.digests[j.Graph]
	if !ok {
		d = graph.Digest(j.Graph)
		s.digests[j.Graph] = d
	}
	return svcKey{digest: d, images: j.Images}
}

// newExecutor builds an executor at the cluster's batch setting with a fresh
// controller, pricing its layers from the run's cost grids. Dry-run service
// probes use it as is (fault-free: dispatch plans with nominal latencies);
// node simulations add their faults and sinks. With Macro or TraceOff the
// power-sample trace is off, and with Macro the executor shares the run's
// summary cache: probes and nodes hit the same grids and flow summaries
// (single-flight fill across goroutines). An executor with a demoting
// attachment — a live injector, obs, audit — micro-steps on its own; either
// way its result is bit-identical to the micro reference.
func newExecutor(cfg Config) *sim.Executor {
	e := sim.NewExecutor(cfg.Platform, cfg.NewCtl())
	e.Batch = cfg.Batch
	e.Grids = cfg.grids
	if cfg.Macro != nil || cfg.TraceOff {
		e.SensorPeriod = 0
		e.Summaries = cfg.Macro
	}
	return e
}

// queuedJob tracks a job through dispatch, preserving its original arrival
// for turnaround accounting across failovers.
type queuedJob struct {
	Job
	orig time.Duration // original arrival (Job.Arrival moves on requeue)
}

// nodeState tracks one node's accumulated dispatch decisions before its
// task flow is simulated.
type nodeState struct {
	free  time.Duration
	tasks []sim.Task
	gaps  []time.Duration
	jobs  int
}

// fleet is one run's dispatch state: every node's accumulated load, the
// nodes' crash instants and the run's tally.
type fleet struct {
	cfg     Config
	nodes   []nodeState
	all     []int // every node index, in order
	crashAt []time.Duration
	run     tally
}

// tally accumulates placement outcomes. The run's tally holds the fleet's
// obs counters and updates them per event. A shard's tally leaves them zero
// (a zero obs.Counter is a no-op) and is added to the run's in shard order,
// so float sums never depend on goroutine timing.
type tally struct {
	completed, failovers, dropped, lostImages int
	lostEnergyJ                               float64
	turnaround                                time.Duration

	mJobs, mLostEnergy, mNodesLost obs.Counter
}

// add folds a shard's tally into the run's, counters included.
func (t *tally) add(s *tally) {
	t.completed += s.completed
	t.failovers += s.failovers
	t.lostEnergyJ += s.lostEnergyJ
	t.lostImages += s.lostImages
	t.turnaround += s.turnaround
	t.mJobs.Add(float64(s.completed), "completed")
	t.mJobs.Add(float64(s.failovers), "failover")
	t.mLostEnergy.Add(s.lostEnergyJ)
}

// Run dispatches jobs (sorted by arrival) to the earliest-available node
// and simulates every node's task flow. Job service times are measured with
// a per-job dry run at the node's policy, so dispatch decisions see the
// same latency the simulation produces.
//
// Under a fault schedule, a node that crashes mid-job loses that job's
// partial work (accounted via the dry run's energy) and the job fails over
// to the earliest surviving node; a crashed node takes no further work. If
// every node is lost, remaining jobs are dropped and counted, never
// panicking the run.
//
// With Config.Shards > 1 (after clamping to Nodes), jobs are admitted in
// rounds onto shards of the fleet (dispatch.go); otherwise one queue covers
// every node. Both dispatchers place jobs with the same FCFS routine, and
// results are deterministic for a fixed config at any shard count.
//
// A job with a nil Graph, negative Images or a negative Arrival is rejected
// with an error naming the job's index before anything is simulated; a job
// of zero images is legal. A negative Batch, AdmitBatch or Shards, and a
// fault schedule that hw.FaultConfig.Validate refuses, are rejected the same
// way with an error naming the field; zero values keep their defaults.
func Run(cfg Config, jobs []Job) (Result, error) {
	if cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("cloud: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Platform == nil || cfg.NewCtl == nil {
		return Result{}, fmt.Errorf("cloud: platform and controller factory required")
	}
	switch {
	case cfg.Batch < 0:
		return Result{}, fmt.Errorf("cloud: negative Batch %d", cfg.Batch)
	case cfg.AdmitBatch < 0:
		return Result{}, fmt.Errorf("cloud: negative AdmitBatch %d", cfg.AdmitBatch)
	case cfg.Shards < 0:
		return Result{}, fmt.Errorf("cloud: negative Shards %d", cfg.Shards)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return Result{}, fmt.Errorf("cloud: %w", err)
	}
	for i, j := range jobs {
		switch {
		case j.Graph == nil:
			return Result{}, fmt.Errorf("cloud: job %d: nil Graph", i)
		case j.Images < 0:
			return Result{}, fmt.Errorf("cloud: job %d: negative Images %d", i, j.Images)
		case j.Arrival < 0:
			return Result{}, fmt.Errorf("cloud: job %d: negative Arrival %v", i, j.Arrival)
		}
	}
	if cfg.grids == nil {
		cfg.grids = sim.NewCostGrids(cfg.Platform)
	}

	queue := make([]queuedJob, len(jobs))
	for i, j := range jobs {
		queue[i] = queuedJob{Job: j, orig: j.Arrival}
	}
	sortByArrival(queue)
	f := &fleet{
		cfg:     cfg,
		nodes:   make([]nodeState, cfg.Nodes),
		all:     make([]int, cfg.Nodes),
		crashAt: cfg.Faults.CrashTimes(cfg.Nodes),
	}
	for n := range f.all {
		f.all[n] = n
	}
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics
		f.run.mJobs = m.Counter("cloud_jobs_total",
			"Dispatched jobs by outcome (completed, failover, dropped).", "outcome")
		f.run.mNodesLost = m.Counter("cloud_nodes_lost_total",
			"Nodes whose scheduled crash fell inside the trace.")
		f.run.mLostEnergy = m.Counter("cloud_lost_energy_joules_total",
			"Energy burned on work destroyed by node crashes.")
	}

	if shards := min(cfg.Shards, cfg.Nodes); shards > 1 {
		f.runSharded(shards, queue)
	} else {
		// The single queue probes each service key on first use.
		cache := map[svcKey]sim.Result{}
		keys := newSvcKeys()
		probe := func(j Job) sim.Result {
			k := keys.key(j)
			r, ok := cache[k]
			if !ok {
				r = newExecutor(cfg).RunTask(j.Graph, j.Images)
				cache[k] = r
			}
			return r
		}
		f.drop(f.place(queue, f.all, probe, &f.run))
	}
	return f.finish(), nil
}

// place is the only placement loop, shared by the single queue, the shards
// and the orphan phase. It drains queue FCFS onto the earliest-available
// surviving node of set; a node whose crash precedes a job's possible start
// can never take it. A node that dies mid-job destroys the job's partial
// work: the energy already burned is pro-rated from the dry run (svc) and
// added to t, and the job re-enters the queue at the crash instant. It
// returns the jobs no node of set can ever take. Everything place writes is
// private to set's nodes, their trace tracks jobTrackBase+n, and t.
func (f *fleet) place(queue []queuedJob, set []int, svc func(Job) sim.Result, t *tally) (unplaced []queuedJob) {
	o, nodes, crashAt := f.cfg.Obs, f.nodes, f.crashAt
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]

		best, bestStart := -1, time.Duration(0)
		for _, n := range set {
			s := maxDur(j.Arrival, nodes[n].free)
			if s >= crashAt[n] {
				continue
			}
			if best < 0 || s < bestStart {
				best, bestStart = n, s
			}
		}
		if best < 0 {
			unplaced = append(unplaced, j)
			continue
		}
		ns := &nodes[best]
		dry := svc(j.Job)
		end := bestStart + dry.Time
		if end > crashAt[best] {
			ran := crashAt[best] - bestStart
			frac := ran.Seconds() / dry.Time.Seconds()
			t.lostEnergyJ += dry.EnergyJ * frac
			t.lostImages += int(float64(j.Images)*frac + 0.5)
			t.failovers++
			t.mJobs.Inc("failover")
			t.mLostEnergy.Add(dry.EnergyJ * frac)
			if o != nil {
				o.Tracer.Complete("job", j.Graph.Name+" (lost)", jobTrackBase+best,
					bestStart, ran, obs.Bool("aborted", true), obs.Int("node", best))
				o.Tracer.Instant("job", "failover", jobTrackBase+best, crashAt[best],
					obs.Str("model", j.Graph.Name), obs.Int("node", best))
			}
			ns.free = crashAt[best]
			j.Arrival = crashAt[best]
			requeue(&queue, j)
			continue
		}
		if len(ns.tasks) > 0 {
			ns.gaps = append(ns.gaps, bestStart-ns.free)
		}
		ns.tasks = append(ns.tasks, sim.Task{Graph: j.Graph, Images: j.Images})
		ns.free = end
		ns.jobs++
		t.completed++
		t.turnaround += end - j.orig
		t.mJobs.Inc("completed")
		if o != nil {
			o.Tracer.Complete("job", j.Graph.Name, jobTrackBase+best, bestStart, dry.Time,
				obs.Int("images", j.Images), obs.Int("node", best),
				obs.Float("queued_ms", float64((bestStart-j.orig).Milliseconds())))
		}
	}
	return unplaced
}

// drop counts the jobs place returned from the whole fleet: no node can ever
// take them, so the degraded cluster loses them.
func (f *fleet) drop(jobs []queuedJob) {
	for _, j := range jobs {
		f.run.dropped++
		f.run.mJobs.Inc("dropped")
		if f.cfg.Obs != nil {
			f.cfg.Obs.Tracer.Instant("job", "dropped", 0, j.Arrival,
				obs.Int("images", j.Images), obs.Str("model", j.Graph.Name))
		}
	}
}

// finish simulates every loaded node and aggregates the cluster result.
func (f *fleet) finish() Result {
	cfg, nodes, crashAt := f.cfg, f.nodes, f.crashAt
	// Simulate every loaded node concurrently — nodes are independent
	// boards, and per-node fault streams are seeded per node index, so the
	// outcome is deterministic regardless of goroutine scheduling. Each node
	// emits metrics into a private registry merged back in node order below:
	// folding into the shared registry directly would make float sums depend
	// on how the nodes' writes interleaved. (The shared tracer needs no such
	// treatment — Events() sorts by track/timestamp/sequence.)
	nodeResults := make([]*NodeResult, len(nodes))
	nodeObs := make([]*obs.Observer, cfg.Nodes)
	nodeLedgers := make([]*ledger.Ledger, cfg.Nodes)
	nodeAudits := make([]*audit.Recorder, cfg.Nodes)
	var wg sync.WaitGroup
	for n := range nodes {
		if nodes[n].jobs == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			e := newExecutor(cfg)
			e.Faults = hw.NewInjector(cfg.Faults.ForNode(n))
			if no := cfg.Obs.ForTrack(nodeTrackBase + n); no != nil {
				no.Metrics = obs.NewRegistry()
				nodeObs[n] = no
				e.Obs = no
			}
			if cfg.Ledger != nil {
				nodeLedgers[n] = ledger.New()
				e.Ledger = nodeLedgers[n]
			}
			if cfg.Audit != nil {
				nodeAudits[n] = audit.New(cfg.Audit.ConfigView())
				e.Audit = nodeAudits[n]
				e.AuditTrack = nodeTrackBase + n
			}
			r := e.RunTaskFlowArrivals(nodes[n].tasks, nodes[n].gaps)
			nodeResults[n] = &NodeResult{Node: n, Jobs: nodes[n].jobs, Result: r, BusyEnd: nodes[n].free}
		}(n)
	}
	wg.Wait()
	if cfg.Obs != nil {
		for _, no := range nodeObs {
			if no != nil {
				cfg.Obs.Metrics.Merge(no.Metrics)
			}
		}
	}
	if cfg.Ledger != nil {
		for _, nl := range nodeLedgers {
			if nl != nil {
				cfg.Ledger.Merge(nl)
			}
		}
	}
	if cfg.Audit != nil {
		for _, na := range nodeAudits {
			if na != nil {
				cfg.Audit.Merge(na)
			}
		}
	}

	t := &f.run
	res := Result{
		Failovers:   t.failovers,
		DroppedJobs: t.dropped,
		LostEnergyJ: t.lostEnergyJ,
		LostImages:  t.lostImages,
	}
	for n, nr := range nodeResults {
		if nr == nil {
			continue
		}
		if crashAt[n] != hw.NeverCrash && crashAt[n] <= nr.BusyEnd {
			nr.Crashed = true
			nr.CrashAt = crashAt[n]
		}
		res.Nodes = append(res.Nodes, *nr)
		res.TotalEnergyJ += nr.Result.EnergyJ
		res.TotalImages += nr.Result.Images
		res.Faults.Add(nr.Result.Faults)
		res.Passes += nr.Result.Passes
		res.QoSViolations += nr.Result.QoSViolations
		if nr.BusyEnd > res.Makespan {
			res.Makespan = nr.BusyEnd
		}
	}
	// A node is lost if its scheduled crash fell inside the trace (whether
	// or not it was holding a job at that instant).
	for n := range crashAt {
		if crashAt[n] != hw.NeverCrash && crashAt[n] <= res.Makespan {
			res.NodesLost++
			if cfg.Obs != nil {
				t.mNodesLost.Inc()
				cfg.Obs.Tracer.Instant("node", "crash", jobTrackBase+n, crashAt[n],
					obs.Int("node", n))
			}
		}
	}
	res.TotalEnergyJ += res.LostEnergyJ
	if t.completed > 0 {
		res.MeanTurnaround = t.turnaround / time.Duration(t.completed)
	}
	return res
}

// sortByArrival orders a queue by arrival, FCFS among ties.
func sortByArrival(q []queuedJob) {
	sort.SliceStable(q, func(i, j int) bool { return q[i].Arrival < q[j].Arrival })
}

// requeue inserts a failed-over job back into the arrival-ordered queue,
// after every job with an earlier-or-equal arrival (FCFS among ties keeps
// dispatch deterministic).
func requeue(queue *[]queuedJob, j queuedJob) {
	q := *queue
	i := sort.Search(len(q), func(k int) bool { return q[k].Arrival > j.Arrival })
	q = append(q, queuedJob{})
	copy(q[i+1:], q[i:])
	q[i] = j
	*queue = q
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
