package main

import (
	"context"
	"fmt"
	"time"

	"bitc/internal/serve"
)

// serveOptions configures serve-2pc's operation i. 480 txn/round is about 85%
// of the two shards' 2×256 batch capacity, so that admission control never
// rejects; a rejection counts as a failure.
func serveOptions(seed uint64, i int, short bool) serve.Options {
	o := serve.Options{
		Shards: 2, Coordinators: 2, Users: 200_000, Rate: 480, Duration: 40,
		Cross: 0.1, Skew: 0.2, Seed: seed*1000 + uint64(i),
	}
	if short {
		o.Users, o.Duration = 10_000, 20
	}
	return o
}

// checkServe verifies a run's result without the VM's help: every generated
// transaction is accounted for, none was rejected, and balance is conserved.
func checkServe(res *serve.Result) error {
	done := res.Committed + res.CrossCommitted + res.Rejected + res.CrossRejected
	switch {
	case res.Interrupted:
		return fmt.Errorf("run was interrupted")
	case !res.InvariantOK:
		return fmt.Errorf("balance not conserved: total %d, want %d", res.FinalTotal, res.ExpectedTotal)
	case uint64(res.Generated) != done:
		return fmt.Errorf("generated %d transactions, accounted for %d", res.Generated, done)
	case res.Rejected+res.CrossRejected != 0:
		return fmt.Errorf("%d transactions rejected", res.Rejected+res.CrossRejected)
	}
	return nil
}

// serve2PC drives serve-2pc: one open-loop serve run per operation, each on
// a fresh service with its own seed. Set-up is serve.New, which compiles the
// shard program and initialises every account; the operation is Run.
func serve2PC(r *run) error {
	var txnPerS, conflicts, retries, queuePeak, p99 []float64
	var commits, aborts, cross, txns, instrs, switches, icHits, icLookups, allocBytes, runs float64
	i := 0
	op := func(traced bool) {
		o := serveOptions(r.cfg.seed, i, r.cfg.short)
		i++
		var sv *serve.Service
		var err error
		if traced {
			_, _, err = r.tr.root("setup", "serve.new", func(int) (err error) {
				sv, err = serve.New(o)
				return err
			})
		} else {
			start := time.Now()
			sv, err = serve.New(o)
			r.setups = append(r.setups, time.Since(start))
		}
		if err != nil {
			r.verify("serve.New", err)
			return
		}
		var res *serve.Result
		runSV := func() (err error) {
			res, err = sv.Run(context.Background())
			return err
		}
		a0 := totalAlloc()
		var d time.Duration
		if traced {
			_, d, err = r.tr.root("run", "serve", func(id int) (err error) {
				r.tr.child(id, "serve.run", func() { err = runSV() })
				return err
			})
		} else {
			d, err = timed(runSV)
		}
		allocBytes += float64(totalAlloc() - a0)
		runs++
		if err == nil {
			err = checkServe(res)
		}
		r.record("run", traced, d, err)
		if err != nil {
			return
		}
		done := float64(res.Committed + res.CrossCommitted)
		txnPerS = append(txnPerS, done/d.Seconds())
		conflicts = append(conflicts, float64(res.Conflicts))
		retries = append(retries, float64(res.Retries))
		p99 = append(p99, float64(res.P99Ticks))
		commits += float64(res.TxCommits)
		aborts += float64(res.TxAborts)
		cross += float64(res.CrossCommitted)
		txns += done
		peak := 0
		for _, s := range res.Shards {
			peak = max(peak, s.QueuePeak)
			instrs += float64(s.Stats.Instrs)
			switches += float64(s.Stats.Switches)
			icHits += float64(s.Stats.ICHits)
			icLookups += float64(s.Stats.ICHits + s.Stats.ICMisses)
		}
		queuePeak = append(queuePeak, float64(peak))
	}
	r.openWindow()
	r.loop(func() {
		op(false)
		if r.tr != nil {
			op(true)
		}
	})
	if err := r.measureRSS("run", func() error {
		sv, err := serve.New(serveOptions(r.cfg.seed, i, r.cfg.short))
		i++
		if err != nil {
			return err
		}
		res, err := sv.Run(context.Background())
		if err != nil {
			return err
		}
		return checkServe(res)
	}); err != nil {
		return err
	}

	// The throughput of a run at the 10th-percentile run time.
	r.layer["serve.txn_per_s"] = quantile(txnPerS, 0.9)
	r.layer["serve.abort_ratio"] = ratio(aborts, commits+aborts)
	r.layer["serve.2pc_conflicts"] = median(conflicts)
	r.layer["serve.2pc_retries"] = median(retries)
	r.layer["serve.cross_share"] = ratio(cross, txns)
	r.layer["serve.queue_peak"] = median(queuePeak)
	r.layer["serve.p99_rounds"] = median(p99)
	r.layer["vm.instrs_per_txn"] = ratio(instrs, txns)
	r.layer["vm.switches_per_txn"] = ratio(switches, txns)
	r.layer["vm.ic_hit_ratio"] = ratio(icHits, icLookups)
	r.layer["vm.go_alloc_mb_per_op"] = ratio(allocBytes, runs) / (1 << 20)
	return nil
}
