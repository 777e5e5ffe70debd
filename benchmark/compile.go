package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/ir"
)

const (
	compileFuncs      = 1000 // about 140 KB of source; a load takes 60-100 ms
	compileFuncsShort = 200
	compileSetups     = 3
	corpusName        = "corpus.bitc"
)

// clusterWidth is the corpus cluster width the seed picks, in [24, 26]. The
// band is narrow because the cost of a load or an edit follows the width: from
// k=21 to k=30 an edit's cost falls by a tenth.
func clusterWidth(seed uint64) int { return 24 + int(seed%3) }

func irDigest(mod *ir.Module) [32]byte { return sha256.Sum256([]byte(mod.String())) }

// compileCorpus drives compile-corpus: repeated core.Load of one generated
// corpus. It runs the lexer, parser, type checker, compiler, optimiser and
// bounds prover, and never the VM. Every load must produce the IR of the
// set-up load.
func compileCorpus(r *run) error {
	nfuncs := compileFuncs
	if r.cfg.short {
		nfuncs = compileFuncsShort
	}
	// setup generates the corpus and loads it; besides compileSetups times
	// before the window, it runs every fourth round, so that setup_s is a
	// median over the whole run.
	setup := func() (string, *core.Program, error) {
		start := time.Now()
		text := corpus.Text(nfuncs, clusterWidth(r.cfg.seed))
		p, err := core.Load(corpusName, text, loadCfg)
		if err != nil {
			return "", nil, fmt.Errorf("load: %w", err)
		}
		r.setups = append(r.setups, time.Since(start))
		return text, p, nil
	}
	var text string
	var ref [32]byte
	for rep := 0; rep < compileSetups; rep++ {
		var p *core.Program
		var err error
		if text, p, err = setup(); err != nil {
			return err
		}
		ref = irDigest(p.Module)
	}
	checkIR := func(mod *ir.Module) error {
		if irDigest(mod) != ref {
			return fmt.Errorf("IR differs from the set-up load's")
		}
		return nil
	}

	counted := false
	round := 0
	r.openWindow()
	r.loop(func() {
		if round++; round%4 == 0 {
			if _, _, err := setup(); err != nil {
				r.verify("set-up", err)
			}
		}
		var p *core.Program
		d, err := timed(func() (err error) {
			p, err = core.Load(corpusName, text, loadCfg)
			return err
		})
		if err == nil {
			err = checkIR(p.Module)
		}
		r.record("load", false, d, err)
		if r.tr == nil {
			return
		}
		r.lexOp(corpusName, text)
		var s *staged
		_, d, err = r.tr.root("load", "load", func(id int) (err error) {
			s, err = loadStaged(r.tr, id, corpusName, text, loadCfg)
			return err
		})
		if err == nil {
			err = checkIR(s.mod)
		}
		r.record("load", true, d, err)
		if err == nil && !counted {
			r.addProgramCounts(s)
			counted = true
		}
	})
	if err := r.measureRSS("load", func() error {
		_, err := core.Load(corpusName, text, loadCfg)
		return err
	}); err != nil {
		return err
	}
	if counted {
		r.stageTimes("load", int(r.layer["program.funcs"]))
	}
	return nil
}
