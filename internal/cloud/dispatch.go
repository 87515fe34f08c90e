// The sharded work-stealing dispatcher: the single queue in cluster.go walks
// every node per job, which serializes dispatch for large fleets. Here the
// nodes are partitioned round-robin into shards, jobs are admitted in
// arrival-ordered batches, and each round runs four phases:
//
//  1. fill — service times for the batch's uncached model/images keys are
//     dry-run in parallel, then written to the shared cache in admission
//     order (a service time depends only on its key, so which worker
//     computes it cannot change the value);
//  2. steal — a sequential, seeded rebalance: the least-loaded shard steals
//     the tail job from the first profitable victim in its seeded victim
//     order, repeating until no steal is profitable (or a bound is hit);
//  3. dispatch — each shard runs place (cluster.go), the placement loop the
//     single queue uses, over its own nodes, concurrently with the others;
//  4. orphans — jobs no surviving node of their shard could take go through
//     place again, sequentially, over the whole fleet, or are dropped.
//
// Determinism at any shard count: every cross-shard decision (admission,
// home assignment, stealing, orphan reassignment, counter flushes) happens
// in a sequential phase over deterministic state; the concurrent phases
// (fill, dispatch, node simulation) only touch disjoint state — a shard
// owns its nodes and its obs tracks — so goroutine scheduling cannot leak
// into the result or the exported telemetry.

package cloud

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"powerlens/internal/obs"
	"powerlens/internal/sim"
)

// shardTrackBase hosts per-shard dispatcher events (steals, drops) on trace
// track shardTrackBase+shard, clear of the job (10+) and node (100+) ranges.
const shardTrackBase = 1000

// defaultAdmitBatch is the per-round admission batch when Config.AdmitBatch
// is unset.
const defaultAdmitBatch = 32

// shardState is one dispatcher shard: its owned nodes, its current-round
// queue, and a tally added to the run's in shard order (float adds in
// goroutine order would be nondeterministic).
type shardState struct {
	id      int
	nodes   []int       // owned node indices
	victims []int       // seeded steal order over the other shards
	queue   []queuedJob // current round, sorted by arrival
	orphans []queuedJob // this round's jobs no owned node could take
	steals  int
	tally
}

// survivors counts the shard's nodes that are still alive given their
// accumulated load (a node whose scheduled crash precedes its free time can
// never take another job).
func (sh *shardState) survivors(nodes []nodeState, crashAt []time.Duration) int {
	alive := 0
	for _, n := range sh.nodes {
		if nodes[n].free < crashAt[n] {
			alive++
		}
	}
	return alive
}

// load estimates when the shard would drain its current queue: earliest free
// time among surviving nodes plus queued service time spread across them.
// Infinite when no owned node survives — such a shard never steals and is
// always worth stealing from.
func (sh *shardState) load(nodes []nodeState, crashAt []time.Duration, svc func(Job) sim.Result) float64 {
	alive := sh.survivors(nodes, crashAt)
	if alive == 0 {
		return inf
	}
	base := time.Duration(1<<63 - 1)
	for _, n := range sh.nodes {
		if nodes[n].free < crashAt[n] && nodes[n].free < base {
			base = nodes[n].free
		}
	}
	queued := 0.0
	for _, j := range sh.queue {
		queued += svc(j.Job).Time.Seconds()
	}
	return base.Seconds() + queued/float64(alive)
}

const inf = 1e308

// runSharded is the Shards > 1 dispatch path; see the package comment above
// for the phase structure and the determinism argument.
func (f *fleet) runSharded(numShards int, pending []queuedJob) {
	cfg, nodes, crashAt := f.cfg, f.nodes, f.crashAt
	admit := cfg.AdmitBatch
	if admit <= 0 {
		admit = defaultAdmitBatch
	}
	stealSeed := cfg.StealSeed
	if stealSeed == 0 {
		stealSeed = 1
	}

	shards := make([]*shardState, numShards)
	for s := range shards {
		shards[s] = &shardState{id: s}
		rng := rand.New(rand.NewSource(stealSeed + int64(s)))
		for _, v := range rng.Perm(numShards) {
			if v != s {
				shards[s].victims = append(shards[s].victims, v)
			}
		}
	}
	for n := range nodes {
		sh := shards[n%numShards]
		sh.nodes = append(sh.nodes, n)
	}

	// Shared service cache. Written only during the sequential part of the
	// fill phase (which also memoizes every batch job's graph digest); the
	// concurrent dispatch phase reads it for keys the fill phase guaranteed
	// are present (failovers and steals reuse a batch job's own key).
	serviceCache := map[svcKey]sim.Result{}
	keys := newSvcKeys()
	svc := func(j Job) sim.Result { return serviceCache[keys.key(j)] }

	var mShardJobs, mSteals obs.Counter
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics
		mShardJobs = m.Counter("cloud_shard_jobs_total",
			"Jobs completed per dispatcher shard.", "shard")
		mSteals = m.Counter("cloud_steals_total",
			"Jobs moved between shard queues by work stealing.", "shard")
	}

	admitted := 0
	for len(pending) > 0 {
		n := min(admit, len(pending))
		batch := pending[:n]
		pending = pending[n:]

		fillServiceCache(cfg, serviceCache, keys, batch)

		// Home assignment: global admission counter round-robin, so the
		// partition depends only on arrival order. Each shard's queue stays
		// arrival-sorted (a round-robin subsequence of a sorted batch).
		for i := range batch {
			shards[admitted%numShards].queue = append(shards[admitted%numShards].queue, batch[i])
			admitted++
		}

		stealPhase(cfg, shards, nodes, crashAt, svc, n)

		// Concurrent per-shard dispatch: disjoint nodes, disjoint trace
		// tracks, per-shard tallies — nothing shared is written. A shard's
		// queue storage is reused in the next round.
		var wg sync.WaitGroup
		for _, sh := range shards {
			wg.Add(1)
			go func(sh *shardState) {
				defer wg.Done()
				sh.orphans = f.place(sh.queue, sh.nodes, svc, &sh.tally)
				sh.queue = sh.queue[:0]
			}(sh)
		}
		wg.Wait()

		// Orphan reassignment (sequential, shard order): jobs whose home
		// shard had no surviving feasible node get the whole fleet.
		var orphans []queuedJob
		for _, sh := range shards {
			orphans = append(orphans, sh.orphans...)
		}
		sortByArrival(orphans)
		f.drop(f.place(orphans, f.all, svc, &f.run))
	}

	// Add the shard tallies in shard order so counter values (the float ones
	// especially) never depend on dispatch goroutine timing.
	for _, sh := range shards {
		label := strconv.Itoa(sh.id)
		mShardJobs.Add(float64(sh.completed), label)
		mSteals.Add(float64(sh.steals), label)
		f.run.add(&sh.tally)
	}
}

// fillServiceCache dry-runs the batch's uncached model/images keys in
// parallel and commits the results in admission order. A dry run uses a
// fresh executor and controller, so its result is a pure function of the
// key — worker assignment cannot change what gets cached.
func fillServiceCache(cfg Config, cache map[svcKey]sim.Result, keys *svcKeys, batch []queuedJob) {
	var missing []Job
	seen := map[svcKey]bool{}
	for _, j := range batch {
		k := keys.key(j.Job)
		if _, ok := cache[k]; !ok && !seen[k] {
			seen[k] = true
			missing = append(missing, j.Job)
		}
	}
	results := make([]sim.Result, len(missing))
	var wg sync.WaitGroup
	for i := range missing {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = newExecutor(cfg).RunTask(missing[i].Graph, missing[i].Images)
		}(i)
	}
	wg.Wait()
	for i, j := range missing {
		cache[keys.key(j)] = results[i]
	}
}

// stealPhase rebalances the round's queues: the least-loaded shard steals
// the tail job from the first victim in its seeded order for which the move
// is profitable (victim stays at least as loaded as the thief afterwards, so
// a steal is never immediately reversed). Sequential and bounded, hence
// deterministic.
func stealPhase(cfg Config, shards []*shardState, nodes []nodeState, crashAt []time.Duration, svc func(Job) sim.Result, batchSize int) {
	est := make([]float64, len(shards))
	alive := make([]int, len(shards))
	for s, sh := range shards {
		est[s] = sh.load(nodes, crashAt, svc)
		alive[s] = sh.survivors(nodes, crashAt)
	}
	for budget := 2 * batchSize; budget > 0; budget-- {
		thief := -1
		for s := range shards {
			if alive[s] == 0 {
				continue
			}
			if thief < 0 || est[s] < est[thief] {
				thief = s
			}
		}
		if thief < 0 {
			return
		}
		stole := false
		for _, v := range shards[thief].victims {
			vq := shards[v].queue
			if len(vq) == 0 {
				continue
			}
			j := vq[len(vq)-1]
			jt := svc(j.Job).Time.Seconds()
			newThief := est[thief] + jt/float64(alive[thief])
			newVictim := est[v]
			if alive[v] > 0 {
				newVictim = est[v] - jt/float64(alive[v])
			}
			if newVictim < newThief {
				continue // not profitable: would just flip the imbalance
			}
			shards[v].queue = vq[:len(vq)-1]
			requeue(&shards[thief].queue, j)
			est[thief], est[v] = newThief, newVictim
			shards[thief].steals++
			if cfg.Obs != nil {
				cfg.Obs.Tracer.Instant("steal", "steal", shardTrackBase+thief, j.Arrival,
					obs.Int("from_shard", v), obs.Str("model", j.Graph.Name), obs.Int("to_shard", thief))
			}
			stole = true
			break
		}
		if !stole {
			return
		}
	}
}
