package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bitc/internal/corpus"
	"bitc/internal/serve/load"
)

// recordedDigests pins every generated input at seed 1, one
// "<sha256>  <input>" line each, so that a change to internal/corpus,
// internal/serve/load or the kernels cannot silently change what the
// benchmark measures.
//
//go:embed inputs.sha256
var recordedDigests string

// inputDigests hashes every input the workloads generate at seed 1, at full
// size.
func inputDigests() (map[string]string, error) {
	const seed = 1
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	out := map[string]string{}
	for _, k := range kernels {
		src, err := kernelSource(k.name, seed)
		if err != nil {
			return nil, err
		}
		out["kernel/"+k.name] = sum([]byte(src))
	}
	k := clusterWidth(seed)
	out["compile-corpus/text"] = sum([]byte(corpus.Text(compileFuncs, k)))
	text := corpus.Text(watchFuncs, k)
	out["analyze-watch/text"] = sum([]byte(text))
	// The edit sequence: the order, and the text after its first ten edits.
	order := editOrder(seed, watchFuncs, k)
	var b []byte
	for i, idx := range order {
		b = strconv.AppendInt(b, int64(idx), 10)
		b = append(b, ' ')
		if i < 10 {
			text = corpus.EditOne(text, idx)
		}
	}
	out["analyze-watch/edits"] = sum(append(b, text...))
	opts := serveOptions(seed, 0, false)
	ob, err := json.Marshal(opts)
	if err != nil {
		return nil, err
	}
	out["serve-2pc/options"] = sum(ob)
	// The arrivals serve.New's generator emits for these options.
	gen := load.New(load.Config{
		Users: opts.Users, Shards: opts.Shards, Rate: opts.Rate,
		Skew: opts.Skew, Cross: opts.Cross, Seed: opts.Seed,
	})
	b = b[:0]
	for t := 0; t < opts.Duration; t++ {
		for _, x := range gen.Tick(t) {
			b = fmt.Appendf(b, "%d %d %d %d\n", x.Arrival, x.From, x.To, x.Amount)
		}
	}
	out["serve-2pc/arrivals"] = sum(b)
	return out, nil
}

// checkInputs refuses to measure inputs other than the recorded ones.
func checkInputs() error {
	want := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(recordedDigests))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("inputs.sha256: malformed line %q", line)
		}
		want[f[1]] = f[0]
	}
	got, err := inputDigests()
	if err != nil {
		return err
	}
	var bad []string
	for name, d := range got {
		if want[name] != d {
			bad = append(bad, d+"  "+name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, "(no such input)  "+name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("generated inputs differ from inputs.sha256, so this is not the recorded benchmark; at this commit they are:\n%s",
			strings.Join(bad, "\n"))
	}
	return nil
}
