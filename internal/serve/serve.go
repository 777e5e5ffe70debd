// Package serve is the sharded multi-tenant transaction service built on the
// bitc VM: the paper's systems-code checklist (concurrency, state management,
// latency control) exercised end to end instead of in microbenchmarks.
//
// Accounts are sharded across N schedulers, each an independent VM running
// the program in program.go; a batch of single-shard transactions executes as
// M:N green threads under the shard's deterministic scheduler, with the
// optimistic STM resolving conflicts. Cross-shard transfers run a two-phase
// commit over vm.HostTxn participants (twopc.go). Intake is open-loop
// (internal/serve/load) with bounded per-shard queues for admission control:
// overload produces rejections, not unbounded memory.
//
// Time is round-based: each round the generator emits Rate transactions,
// every shard with queued work executes one batch (phase A, shards in
// parallel), then cross-shard coordinators run (phase B). Latency is measured
// in rounds, so a deterministic seed yields byte-identical results including
// the latency distribution.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bitc/internal/core"
	"bitc/internal/serve/load"
	"bitc/internal/vm"
)

// Options configures a Service. Zero values take the defaults noted on each
// field.
type Options struct {
	// Shards is the number of account shards, each with its own VM and
	// scheduler (default 4).
	Shards int
	// Users is the simulated-user population, one account each (default
	// 10000).
	Users int64
	// Rate is the open-loop arrival rate in transactions per round
	// (default 1000).
	Rate int
	// Duration is the number of rounds to generate traffic for; the
	// service then drains (default 10).
	Duration int
	// Batch caps the transactions a shard executes per round. It must stay
	// well under the STM's bounded-retry limit, since a transaction's abort
	// count is bounded by the commits in its batch (default 256).
	Batch int
	// Workers is the green threads per shard batch (default 8).
	Workers int
	// QueueCap bounds each shard's mailbox; arrivals beyond it are
	// rejected — the admission-control backpressure (default 4×Batch).
	QueueCap int
	// Coordinators is the concurrency of the cross-shard 2PC phase
	// (default 4; forced to 1 when Deterministic).
	Coordinators int
	// MaxRetries bounds 2PC retry attempts before a transfer is rejected
	// (default 8).
	MaxRetries int
	// Skew is the hot-key probability passed to the generator.
	Skew float64
	// Cross is the cross-shard transfer fraction passed to the generator.
	Cross float64
	// Seed drives the generator and every shard scheduler (default 1).
	Seed uint64
	// Quantum is the shard schedulers' preemption interval (default 64).
	Quantum int
	// InitialBalance seeds every account (default 100).
	InitialBalance int64
	// Deterministic forces single-coordinator 2PC and zeroes wall-clock
	// fields so runs are byte-reproducible.
	Deterministic bool
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Users <= 0 {
		o.Users = 10000
	}
	if o.Users < 2 {
		o.Users = 2
	}
	if o.Rate <= 0 {
		o.Rate = 1000
	}
	if o.Duration <= 0 {
		o.Duration = 10
	}
	if o.Batch <= 0 {
		o.Batch = 256
	}
	if o.Batch > 900 {
		o.Batch = 900 // keep per-txn abort bound under maxTxnAttempts
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.Batch
	}
	if o.Coordinators <= 0 {
		o.Coordinators = 4
	}
	if o.Deterministic {
		o.Coordinators = 1
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Quantum <= 0 {
		o.Quantum = 64
	}
	if o.InitialBalance <= 0 {
		o.InitialBalance = 100
	}
	return o
}

// stagedTxn is one transaction staged for a shard's batch, in shard-local
// account indices.
type stagedTxn struct {
	fi, ti, am int64
	arrival    int
}

// shard is one account shard: a VM, its mailbox, and its counters. During
// phase A only the shard's own goroutine touches the VM; during phase B the
// coordinators serialise on mu. The two phases never overlap.
type shard struct {
	id     int
	mu     sync.Mutex
	vm     *vm.VM
	acctsV *vm.Object // the accounts vector object
	locals int64      // accounts resident on this shard

	queue []load.Txn // mailbox (FIFO; head-index compaction)
	head  int
	cur   []stagedTxn // batch staged for the sv_* externs

	committed uint64
	rejected  uint64
	conflicts uint64 // 2PC prepare failures on this shard
	queuePeak int
	lat       *histogram
}

// account returns the heap object for shard-local account index i.
func (s *shard) account(i int64) *vm.Object { return s.acctsV.Elems[i].R }

// enqueue admits t to the mailbox or rejects it when full.
func (s *shard) enqueue(t load.Txn, cap int) bool {
	if len(s.queue)-s.head >= cap {
		s.rejected++
		return false
	}
	s.queue = append(s.queue, t)
	if n := len(s.queue) - s.head; n > s.queuePeak {
		s.queuePeak = n
	}
	return true
}

// dequeue stages up to max transactions into s.cur for the next batch.
func (s *shard) dequeue(max int, shards int64) int {
	s.cur = s.cur[:0]
	for len(s.cur) < max && s.head < len(s.queue) {
		t := s.queue[s.head]
		s.head++
		s.cur = append(s.cur, stagedTxn{
			fi: t.From / shards, ti: t.To / shards, am: t.Amount, arrival: t.Arrival,
		})
	}
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
	return len(s.cur)
}

// Service is a running sharded transaction service.
type Service struct {
	opts   Options
	gen    *load.Generator
	shards []*shard

	xmu  sync.Mutex // guards xq (cross-shard mailbox)
	xq   []*crossTxn
	xcap int

	crossCommitted uint64
	crossRejected  uint64
	retries        uint64
	xlat           *histogram

	runErr  error
	errOnce sync.Once
}

// Result summarises a completed run.
type Result struct {
	// Opts echoes the effective (defaulted) options of the run.
	Opts Options
	// Rounds is how many rounds the service executed, including drain.
	Rounds int
	// Generated counts transactions emitted by the load generator.
	Generated int64
	// Committed counts single-shard transactions applied.
	Committed uint64
	// CrossCommitted counts cross-shard transfers committed via 2PC.
	CrossCommitted uint64
	// Rejected counts single-shard admission rejections (backpressure).
	Rejected uint64
	// CrossRejected counts cross-shard transfers rejected by admission
	// control or by exhausting their 2PC retry budget.
	CrossRejected uint64
	// Conflicts counts 2PC prepare failures (each triggers a retry).
	Conflicts uint64
	// Retries counts 2PC re-attempts after a conflict.
	Retries uint64
	// TxCommits and TxAborts aggregate the STM counters across shard VMs,
	// including host-transaction (2PC participant) activity.
	TxCommits, TxAborts uint64
	// ExpectedTotal is Users × InitialBalance; FinalTotal is the summed
	// balance at shutdown; InvariantOK is their equality — conservation of
	// balance across every commit, abort, rejection, and the drain.
	ExpectedTotal, FinalTotal int64
	InvariantOK               bool
	// P50Ticks and P99Ticks are aggregate commit-latency percentiles in
	// rounds (arrival to commit, inclusive).
	P50Ticks, P99Ticks int
	// WallNS is the wall-clock duration (0 when Deterministic).
	WallNS int64
	// Interrupted reports the run was cancelled and drained early.
	Interrupted bool
	// Shards holds the per-shard breakdown.
	Shards []ShardResult
}

// ShardResult is one shard's slice of a Result.
type ShardResult struct {
	// ID is the shard index.
	ID int
	// Accounts is the number of accounts resident on the shard.
	Accounts int64
	// Committed counts single-shard transactions the shard applied.
	Committed uint64
	// Rejected counts admission rejections at the shard's mailbox.
	Rejected uint64
	// Conflicts counts 2PC prepare failures on the shard.
	Conflicts uint64
	// QueuePeak is the mailbox high-water mark.
	QueuePeak int
	// P50Ticks and P99Ticks are the shard's commit-latency percentiles.
	P50Ticks, P99Ticks int
	// Stats snapshots the shard VM's execution counters.
	Stats vm.Stats
}

// New compiles the shard program and builds a service: one VM per shard,
// every account initialised to InitialBalance.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	shards := int64(opts.Shards)
	perShard := (opts.Users + shards - 1) / shards
	prog, err := core.Load("serve", shardProgram(perShard), core.DefaultConfig)
	if err != nil {
		return nil, fmt.Errorf("serve: shard program: %w", err)
	}
	sv := &Service{
		opts: opts,
		gen: load.New(load.Config{
			Users: opts.Users, Shards: opts.Shards, Rate: opts.Rate,
			Skew: opts.Skew, Cross: opts.Cross, Seed: opts.Seed,
		}),
		xcap: opts.QueueCap * opts.Shards,
		xlat: newHistogram(),
	}
	for i := 0; i < opts.Shards; i++ {
		locals := (opts.Users - int64(i) + shards - 1) / shards
		s := &shard{id: i, locals: locals, lat: newHistogram()}
		s.vm = vm.New(prog.Module, vm.Options{
			Seed:    opts.Seed*1000003 + uint64(i),
			Quantum: opts.Quantum,
		})
		cur := &s.cur
		s.vm.Externs["sv_from"] = func(args []int64) int64 { return (*cur)[args[0]].fi }
		s.vm.Externs["sv_to"] = func(args []int64) int64 { return (*cur)[args[0]].ti }
		s.vm.Externs["sv_amt"] = func(args []int64) int64 { return (*cur)[args[0]].am }
		if _, err := s.vm.RunFunc("init", vm.IntValue(locals), vm.IntValue(opts.InitialBalance)); err != nil {
			return nil, fmt.Errorf("serve: shard %d init: %w", i, err)
		}
		g, ok := s.vm.Global("accounts")
		if !ok || g.K != vm.KRef {
			return nil, fmt.Errorf("serve: shard %d: accounts global unreachable", i)
		}
		s.acctsV = g.R
		sv.shards = append(sv.shards, s)
	}
	return sv, nil
}

// Options returns the effective (defaulted) options.
func (sv *Service) Options() Options { return sv.opts }

// fail records the first fatal error; the round loop checks it each round.
func (sv *Service) fail(err error) {
	sv.errOnce.Do(func() { sv.runErr = err })
}

// route admits one generated transaction: cross-shard transfers go to the
// 2PC mailbox, everything else to the owning shard's mailbox.
func (sv *Service) route(t load.Txn) {
	shards := int64(sv.opts.Shards)
	if t.From%shards != t.To%shards {
		sv.xmu.Lock()
		if len(sv.xq) >= sv.xcap {
			sv.crossRejected++
		} else {
			sv.xq = append(sv.xq, &crossTxn{t: t})
		}
		sv.xmu.Unlock()
		return
	}
	sv.shards[t.From%shards].enqueue(t, sv.opts.QueueCap)
}

// runBatch executes one batch on a shard (phase A). The staged batch runs as
// Workers green threads inside the shard VM; latency is recorded against the
// completion round.
func (s *shard) runBatch(sv *Service, round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.dequeue(sv.opts.Batch, int64(sv.opts.Shards))
	if n == 0 {
		return
	}
	if _, err := s.vm.RunFunc("apply-batch", vm.IntValue(int64(n)), vm.IntValue(int64(sv.opts.Workers))); err != nil {
		sv.fail(fmt.Errorf("serve: shard %d batch: %w", s.id, err))
		return
	}
	s.committed += uint64(n)
	for _, st := range s.cur {
		s.lat.add(round - st.arrival + 1)
	}
}

// idle reports whether every mailbox (shard and cross) is empty.
func (sv *Service) idle() bool {
	for _, s := range sv.shards {
		if len(s.queue)-s.head > 0 {
			return false
		}
	}
	sv.xmu.Lock()
	n := len(sv.xq)
	sv.xmu.Unlock()
	return n == 0
}

// Run executes the service until Duration rounds of traffic have been
// generated and all mailboxes have drained, or until ctx is cancelled — in
// which case generation stops immediately but in-flight and queued
// transactions still drain before Run returns (graceful shutdown). The
// returned Result includes the conservation-of-balance verdict; an audit
// that traps is returned as an error.
func (sv *Service) Run(ctx context.Context) (*Result, error) {
	start := time.Now()
	stopped := false
	round := 0
	// Drain is bounded — queues are capped and every queued transaction
	// either commits or is rejected within MaxRetries backoff rounds — but
	// cap the loop anyway so a protocol bug cannot spin forever.
	maxRounds := sv.opts.Duration + sv.opts.QueueCap*sv.opts.Shards/sv.opts.Batch + (sv.opts.MaxRetries+1)*16 + 64
	for {
		if ctx.Err() != nil {
			stopped = true
		}
		if !stopped && round < sv.opts.Duration {
			for _, t := range sv.gen.Tick(round) {
				sv.route(t)
			}
		}
		// Phase A: shard batches in parallel.
		var wg sync.WaitGroup
		for _, s := range sv.shards {
			if len(s.queue)-s.head == 0 {
				continue
			}
			wg.Add(1)
			go func(s *shard) {
				defer wg.Done()
				s.runBatch(sv, round)
			}(s)
		}
		wg.Wait()
		// Phase B: cross-shard two-phase commit.
		sv.runCross(round)
		round++
		if sv.runErr != nil {
			return nil, sv.runErr
		}
		if (stopped || round >= sv.opts.Duration) && sv.idle() {
			break
		}
		if round >= maxRounds {
			return nil, fmt.Errorf("serve: drain did not converge after %d rounds", round)
		}
	}
	res, err := sv.result(round, stopped)
	if err != nil {
		return nil, err
	}
	if !sv.opts.Deterministic {
		res.WallNS = time.Since(start).Nanoseconds()
	}
	return res, nil
}

// Total sums every account balance across all shards. It must only be called
// when no batch is executing (between rounds or after Run returns). Each
// shard's audit runs on its own goroutine: shard VMs share nothing, exactly
// as in phase A.
func (sv *Service) Total() (int64, error) {
	sums := make([]int64, len(sv.shards))
	errs := make([]error, len(sv.shards))
	var wg sync.WaitGroup
	for i, s := range sv.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.mu.Lock()
			defer s.mu.Unlock()
			v, err := s.vm.RunFunc("total", vm.IntValue(s.locals))
			sums[i], errs[i] = v.I, err
		}()
	}
	wg.Wait()
	var sum int64
	for i, s := range sv.shards {
		if errs[i] != nil {
			return 0, fmt.Errorf("serve: shard %d total: %w", s.id, errs[i])
		}
		sum += sums[i]
	}
	return sum, nil
}

// result assembles the Result, including the conservation check. An audit
// that cannot run (a VM trap in Total) is an error, not a conservation
// failure.
func (sv *Service) result(rounds int, interrupted bool) (*Result, error) {
	res := &Result{
		Opts:           sv.opts,
		Rounds:         rounds,
		Generated:      sv.gen.Generated(),
		CrossCommitted: sv.crossCommitted,
		CrossRejected:  sv.crossRejected,
		Retries:        sv.retries,
		ExpectedTotal:  sv.opts.Users * sv.opts.InitialBalance,
		Interrupted:    interrupted,
	}
	agg := newHistogram()
	agg.merge(sv.xlat)
	for _, s := range sv.shards {
		res.Committed += s.committed
		res.Rejected += s.rejected
		res.Conflicts += s.conflicts
		res.TxCommits += s.vm.Stats.TxCommits
		res.TxAborts += s.vm.Stats.TxAborts
		agg.merge(s.lat)
		res.Shards = append(res.Shards, ShardResult{
			ID:        s.id,
			Accounts:  s.locals,
			Committed: s.committed,
			Rejected:  s.rejected,
			Conflicts: s.conflicts,
			QueuePeak: s.queuePeak,
			P50Ticks:  s.lat.percentile(50),
			P99Ticks:  s.lat.percentile(99),
			Stats:     s.vm.Stats,
		})
	}
	res.P50Ticks = agg.percentile(50)
	res.P99Ticks = agg.percentile(99)
	total, err := sv.Total()
	if err != nil {
		return nil, err
	}
	res.FinalTotal = total
	res.InvariantOK = total == res.ExpectedTotal
	return res, nil
}
