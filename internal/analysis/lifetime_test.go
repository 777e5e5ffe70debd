package analysis_test

import (
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/source"
)

// ---------------------------------------------------------------------------
// escape: BITC-ESCAPE002 (use after region exit)
// ---------------------------------------------------------------------------

const msgHeader = `
(defstruct msg (v int64))
`

func TestUseAfterExitTable(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{
			// The canonical trap: the reference outlives the region and is
			// dereferenced after the extent ended on the only path.
			name: "assign-then-deref",
			src: `(define (f) int64
			        (let ((mutable keep (make msg :v 0)))
			          (with-region r
			            (set! keep (alloc-in r (make msg :v 1))))
			          (field keep v)))`,
			want: true,
		},
		{
			// Laundered through a call: no single expression ties the set!
			// to the region, only the interprocedural points-to sets do.
			name: "laundered-through-call",
			src: `(define (id (m msg)) msg m)
			      (define (f) int64
			        (let ((mutable keep (make msg :v 0)))
			          (with-region r
			            (set! keep (id (alloc-in r (make msg :v 1)))))
			          (field keep v)))`,
			want: true,
		},
		{
			// Dereference inside the region is fine.
			name: "deref-inside-region",
			src: `(define (f) int64
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            (field m v))))`,
			want: false,
		},
		{
			// Overwritten with a heap object before the dereference: the
			// reference no longer points into the dead region.
			name: "reassigned-before-deref",
			src: `(define (f) int64
			        (let ((mutable keep (make msg :v 0)))
			          (with-region r
			            (set! keep (alloc-in r (make msg :v 1))))
			          (set! keep (make msg :v 2))
			          (field keep v)))`,
			want: false,
		},
		{
			// May-point-to a live heap object on one path: the must-ended
			// verdict does not hold for every pointee, so no error.
			name: "mixed-paths-not-definite",
			src: `(define (f (c bool)) int64
			        (let ((mutable keep (make msg :v 0)))
			          (with-region r
			            (if c
			                (set! keep (alloc-in r (make msg :v 1)))
			                ()))
			          (field keep v)))`,
			want: false,
		},
		{
			// Inner region died, outer is still open: dereferencing an
			// inner-region object after its exit still traps.
			name: "nested-inner-exit",
			src: `(define (f) int64
			        (with-region outer
			          (let ((mutable keep (alloc-in outer (make msg :v 0))))
			            (with-region inner
			              (set! keep (alloc-in inner (make msg :v 1))))
			            (field keep v))))`,
			want: true,
		},
		{
			// Copying the reference after exit is not a dereference; only
			// field/vector/chan operations trap.
			name: "copy-after-exit-no-deref",
			src: `(define (g (m msg)) unit ())
			      (define (f) unit
			        (let ((mutable keep (make msg :v 0)))
			          (with-region r
			            (set! keep (alloc-in r (make msg :v 1))))
			          (let ((h keep))
			            (g h))))`,
			want: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := runOn(t, msgHeader+tc.src)
			got := hasCode(rep, analysis.CodeUseAfterExit)
			if got != tc.want {
				t.Errorf("BITC-ESCAPE002 = %v, want %v (findings %v)",
					got, tc.want, rep.Findings)
			}
		})
	}
}

// TestEscapeTable pins the escape verdicts and reasons of the region idioms:
// what may leave a region's extent (result, alias, assignment, channel,
// retaining callee, spawned thread, inner region) and what may not.
func TestEscapeTable(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		code   string // code of the first escape finding; "" = none expected
		reason string // substring of that finding's message
	}{
		{
			name: "result",
			src: `(define (leak) msg
			        (with-region r
			          (alloc-in r (make msg :v 1))))`,
			code:   analysis.CodeEscape,
			reason: "region r may escape: returned as the function result",
		},
		{
			// The message names the region the value was allocated in.
			name:   "result-rendering",
			src:    `(define (leak) msg (with-region r (alloc-in r (make msg :v 1))))`,
			code:   analysis.CodeEscape,
			reason: "region r",
		},
		{
			// Reading a field inside the region keeps the value in its extent.
			name: "clean-usage",
			src: `(define (f) int64
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            (field m v))))`,
		},
		{
			// Returning a scalar derived from region data is not an escape.
			name: "scalar-result",
			src: `(define (f) int64
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 5))))
			            (field m v))))`,
		},
		{
			name: "let-bound-result",
			src: `(define (leak) msg
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            m)))`,
			code:   analysis.CodeEscape,
			reason: "result",
		},
		{
			name: "assignment",
			src: `(define (f (keep msg)) unit
			        (let ((mutable slot keep))
			          (with-region r
			            (set! slot (alloc-in r (make msg :v 1))))))`,
			code:   analysis.CodeEscape,
			reason: "assign",
		},
		{
			name: "channel-send",
			src: `(define (f (c (chan msg))) unit
			        (with-region r
			          (send c (alloc-in r (make msg :v 1)))))`,
			code:   analysis.CodeEscape,
			reason: "channel",
		},
		{
			// The callee leaks its argument through a channel; points-to
			// follows the argument interprocedurally to the sink.
			name: "call-retention",
			src: `(define out (chan msg) (make-chan 4))
			      (define (stash (m msg)) unit (send out m))
			      (define (f) unit
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            (stash m)
			            ())))`,
			code:   analysis.CodeEscape,
			reason: "channel",
		},
		{
			// An identity call whose result is discarded cannot leak.
			name: "harmless-call",
			src: `(define (id (m msg)) msg m)
			      (define (f) unit
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            (id m)
			            ())))`,
		},
		{
			name: "pure-accessor",
			src: `(define (f) unit
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            (println (field m v)))))`,
		},
		{
			// The inner region's value is dereferenced after region s exited,
			// while region r is still open.
			name: "nested-inner-to-outer",
			src: `(define (f) int64
			        (with-region r
			          (let ((m (with-region s (alloc-in s (make msg :v 1)))))
			            (field m v))))`,
			code:   analysis.CodeUseAfterExit,
			reason: "use after region s exited",
		},
		{
			name: "spawn-capture",
			src: `(define (use (m msg)) int64 (field m v))
			      (define (f) unit
			        (with-region r
			          (let ((m (alloc-in r (make msg :v 1))))
			            (spawn (use m))
			            ())))`,
			code:   analysis.CodeEscape,
			reason: "spawned",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := runOn(t, msgHeader+tc.src)
			var got []analysis.Finding
			for _, f := range rep.Findings {
				if f.Code == analysis.CodeEscape || f.Code == analysis.CodeUseAfterExit {
					got = append(got, f)
				}
			}
			switch {
			case tc.code == "" && len(got) != 0:
				t.Errorf("false escape findings: %v", got)
			case tc.code == "":
			case len(got) == 0:
				t.Errorf("%s not reported: %v", tc.code, codesOf(rep))
			case got[0].Code != tc.code || !strings.Contains(got[0].Message, tc.reason):
				t.Errorf("first escape finding = %s %q, want %s mentioning %q",
					got[0].Code, got[0].Message, tc.code, tc.reason)
			}
		})
	}
}

func TestUseAfterExitSeverityAndRelated(t *testing.T) {
	rep := runOn(t, msgHeader+`
	  (define (f) int64
	    (let ((mutable keep (make msg :v 0)))
	      (with-region r
	        (set! keep (alloc-in r (make msg :v 1))))
	      (field keep v)))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code != analysis.CodeUseAfterExit {
			continue
		}
		found = true
		if f.Severity != source.Error {
			t.Errorf("ESCAPE002 severity = %v, want error", f.Severity)
		}
		if len(f.Related) == 0 {
			t.Error("ESCAPE002 finding has no allocation-site related span")
		}
	}
	if !found {
		t.Fatalf("ESCAPE002 not reported: %v", codesOf(rep))
	}
}

func TestEscapeRelatedAllocationSite(t *testing.T) {
	rep := runOn(t, msgHeader+`
	  (define (leak) msg
	    (with-region r
	      (let ((m (alloc-in r (make msg :v 1))))
	        m)))`)
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeEscape {
			if len(f.Related) == 0 {
				t.Error("ESCAPE001 finding has no allocation-site related span")
			}
			return
		}
	}
	t.Fatalf("ESCAPE001 not reported: %v", codesOf(rep))
}

// ---------------------------------------------------------------------------
// escape: suppression of both codes
// ---------------------------------------------------------------------------

func TestEscapeSuppressForm(t *testing.T) {
	rep := runOn(t, msgHeader+`
	  (define (leak) msg
	    (with-region r
	      (suppress "BITC-ESCAPE001"
	        (alloc-in r (make msg :v 1)))))`)
	if hasCode(rep, analysis.CodeEscape) {
		t.Fatalf("suppressed ESCAPE001 still reported: %v", rep.Findings)
	}
	if len(rep.Suppressed) == 0 {
		t.Fatal("suppressed finding not recorded")
	}
}

func TestUseAfterExitSuppressComment(t *testing.T) {
	rep := runOn(t, msgHeader+`
	  (define (f) int64
	    (let ((mutable keep (make msg :v 0)))
	      (with-region r
	        (set! keep (alloc-in r (make msg :v 1))))
	      (field keep v) ; bitc:ignore BITC-ESCAPE002
	      ))`)
	if hasCode(rep, analysis.CodeUseAfterExit) {
		t.Fatalf("suppressed ESCAPE002 still reported: %v", rep.Findings)
	}
	sup := false
	for _, f := range rep.Suppressed {
		if f.Code == analysis.CodeUseAfterExit {
			sup = true
		}
	}
	if !sup {
		t.Fatal("ESCAPE002 missing from the suppressed list")
	}
}

// ---------------------------------------------------------------------------
// race: aliased handles
// ---------------------------------------------------------------------------

func TestRaceThroughAliasedHandle(t *testing.T) {
	rep := runOn(t, `
	  (defstruct cell (v int64))
	  (define counter cell (make cell :v 0))
	  (define (direct) unit (set-field! counter v 1))
	  (define (aliased) unit
	    (let ((h counter))
	      (set-field! h v 2)))
	  (define (entry) unit
	    (let ((t (spawn (direct))))
	      (aliased)
	      (join t)))`)
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeRace && len(f.Related) > 0 {
			return
		}
	}
	t.Fatalf("race through the aliased handle not reported: %v", codesOf(rep))
}

func TestNoRaceOnDistinctObjects(t *testing.T) {
	// The handle points at a *different* allocation, so unifying by object
	// identity must not pair local-only's access with the global's. (The
	// spawned direct still races with itself — self-parallel — which is the
	// pre-existing verdict, not an aliasing artefact.)
	rep := runOn(t, `
	  (defstruct cell (v int64))
	  (define counter cell (make cell :v 0))
	  (define (direct) unit (set-field! counter v 1))
	  (define (local-only) int64
	    (let ((h (make cell :v 5)))
	      (set-field! h v 2)
	      (field h v)))
	  (define (entry) unit
	    (let ((t (spawn (direct))))
	      (local-only)
	      (join t)))`)
	for _, f := range rep.Findings {
		if f.Code != analysis.CodeRace {
			continue
		}
		if strings.Contains(f.Message, "local-only") {
			t.Fatalf("false race between distinct objects: %v", rep.Findings)
		}
		for _, rel := range f.Related {
			if strings.Contains(rel.Message, "local-only") {
				t.Fatalf("false race between distinct objects: %v", rep.Findings)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// deadstore: alias-aware field stores
// ---------------------------------------------------------------------------

func TestDeadFieldStorePositive(t *testing.T) {
	rep := runOn(t, `
	  (defstruct pair (a int64) (b int64))
	  (define (f) int64
	    (let ((p (make pair :a 1 :b 2)))
	      (set-field! p b 9)
	      (field p a)))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeDeadStore {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead field store not reported: %v", codesOf(rep))
	}
}

func TestDeadFieldStoreNegativeAliasRead(t *testing.T) {
	rep := runOn(t, `
	  (defstruct pair (a int64) (b int64))
	  (define (f) int64
	    (let ((p (make pair :a 1 :b 2)))
	      (let ((h p))
	        (set-field! p b 9)
	        (field h b))))`)
	if hasCode(rep, analysis.CodeDeadStore) {
		t.Fatalf("store observable through an alias flagged: %v", rep.Findings)
	}
}

func TestDeadFieldStoreNegativeEscapes(t *testing.T) {
	// The object leaks to an external, so the store may be observed by code
	// the analysis cannot see.
	rep := runOn(t, `
	  (defstruct pair (a int64) (b int64))
	  (external stash (-> (pair) unit) "stash")
	  (define (f) unit
	    (let ((p (make pair :a 1 :b 2)))
	      (set-field! p b 9)
	      (stash p)))`)
	if hasCode(rep, analysis.CodeDeadStore) {
		t.Fatalf("store on a leaked object flagged: %v", rep.Findings)
	}
}

func TestDeadFieldStoreNegativeGlobal(t *testing.T) {
	rep := runOn(t, `
	  (defstruct pair (a int64) (b int64))
	  (define g pair (make pair :a 1 :b 2))
	  (define (f) unit
	    (set-field! g b 9))`)
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeDeadStore {
			t.Fatalf("store on a global-reachable object flagged: %v", rep.Findings)
		}
	}
}
