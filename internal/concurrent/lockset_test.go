package concurrent_test

import (
	"strings"
	"testing"

	"bitc/internal/concurrent"
	"bitc/internal/core"
)

// analyze runs the summary-based race engine, the one behind both
// core.(*Program).Races and the BITC-RACE001 checker.
func analyze(t *testing.T, src string) *concurrent.Report {
	t.Helper()
	prog, err := core.LoadAnalysis("t.bitc", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Races()
}

const counterHeader = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
`

func TestUnsynchronisedRaceDetected(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (bump) unit
	    (set-field! counter v (+ (field counter v) 1)))
	  (define (main) unit
	    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
	      (join t1) (join t2)))`)
	if len(rep.Races) == 0 {
		t.Fatalf("race not detected; accesses: %d", len(rep.Accesses))
	}
	r := rep.Races[0]
	if r.Location != "counter.v" {
		t.Errorf("race location = %s", r.Location)
	}
	if !strings.Contains(r.String(), "counter.v") {
		t.Errorf("race string = %s", r.String())
	}
}

func TestLockedAccessesNoRace(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (bump) unit
	    (with-lock m
	      (set-field! counter v (+ (field counter v) 1))))
	  (define (main) unit
	    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
	      (join t1) (join t2)))`)
	if len(rep.Races) != 0 {
		t.Fatalf("false race: %v", rep.Races[0])
	}
}

func TestAtomicCountsAsSerialised(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (bump) unit
	    (atomic (set-field! counter v (+ (field counter v) 1))))
	  (define (main) unit
	    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
	      (join t1) (join t2)))`)
	if len(rep.Races) != 0 {
		t.Fatalf("false race under atomic: %v", rep.Races[0])
	}
}

func TestMixedLockAndNoLockRaces(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (locked) unit
	    (with-lock m (set-field! counter v 1)))
	  (define (unlocked) unit
	    (set-field! counter v 2))
	  (define (main) unit
	    (let ((t1 (spawn (locked))) (t2 (spawn (unlocked))))
	      (join t1) (join t2)))`)
	if len(rep.Races) == 0 {
		t.Fatal("lock/no-lock conflict missed")
	}
}

func TestDifferentLocksStillRace(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (a) unit (with-lock m1 (set-field! counter v 1)))
	  (define (b) unit (with-lock m2 (set-field! counter v 2)))
	  (define (main) unit
	    (let ((t1 (spawn (a))) (t2 (spawn (b))))
	      (join t1) (join t2)))`)
	if len(rep.Races) == 0 {
		t.Fatal("disjoint-lock race missed")
	}
}

func TestReadOnlySharingIsFine(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (reader) int64 (field counter v))
	  (define (main) unit
	    (let ((t1 (spawn (reader))) (t2 (spawn (reader))))
	      (join t1) (join t2)))`)
	if len(rep.Races) != 0 {
		t.Fatalf("read/read flagged: %v", rep.Races[0])
	}
}

func TestMainOnlyAccessNoRace(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (main) unit
	    (set-field! counter v 1)
	    (set-field! counter v 2))`)
	if len(rep.Races) != 0 {
		t.Fatalf("sequential main flagged: %v", rep.Races[0])
	}
}

func TestInterproceduralLockHeld(t *testing.T) {
	// The lock is taken in the caller, the access happens in the callee.
	rep := analyze(t, counterHeader+`
	  (define (doit) unit
	    (set-field! counter v (+ (field counter v) 1)))
	  (define (bump) unit
	    (with-lock m (doit)))
	  (define (main) unit
	    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
	      (join t1) (join t2)))`)
	if len(rep.Races) != 0 {
		t.Fatalf("interprocedural lockset lost: %v", rep.Races[0])
	}
}

func TestMainVsSpawnedRace(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (child) unit (set-field! counter v 1))
	  (define (main) int64
	    (let ((t1 (spawn (child))))
	      (field counter v)))`)
	if len(rep.Races) == 0 {
		t.Fatal("main-vs-child race missed")
	}
}

func TestAccessesRecordLocksets(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (f) unit
	    (with-lock a (with-lock b (set-field! counter v 1))))`)
	found := false
	for _, ac := range rep.Accesses {
		if ac.Write && len(ac.Lockset) == 2 && ac.Lockset[0] == "a" && ac.Lockset[1] == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested lockset not recorded: %+v", rep.Accesses)
	}
}

func TestRecursionTerminates(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (loop (n int64)) unit
	    (if (> n 0) (loop (- n 1)) (set-field! counter v 1)))
	  (define (main) unit
	    (let ((t1 (spawn (loop 5))) (t2 (spawn (loop 5))))
	      (join t1) (join t2)))`)
	if len(rep.Races) == 0 {
		t.Fatal("race through recursion missed")
	}
}

// --- Edge cases of the race-pairing policy ---

// Per-field granularity: a field that is only ever read may be shared freely
// even while a sibling field of the same global is written under a lock.
func TestReadOnlyFieldNextToLockedWrites(t *testing.T) {
	rep := analyze(t, `
	  (defstruct pair (ro int64) (rw int64))
	  (define shared pair (make pair :ro 7 :rw 0))
	  (define (reader) int64 (field shared ro))
	  (define (writer) unit (with-lock m (set-field! shared rw 1)))
	  (define (main) unit
	    (let ((t1 (spawn (reader))) (t2 (spawn (reader))) (t3 (spawn (writer))))
	      (join t1) (join t2) (join t3)))`)
	if len(rep.Races) != 0 {
		t.Fatalf("read-only field flagged: %v", rep.Races[0])
	}
}

// Atomic serialises only against other atomics: an atomic writer and a
// lock-holding writer have disjoint locksets and still race.
func TestAtomicVsLockStillRaces(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (a) unit (atomic (set-field! counter v 1)))
	  (define (b) unit (with-lock m (set-field! counter v 2)))
	  (define (main) unit
	    (let ((t1 (spawn (a))) (t2 (spawn (b))))
	      (join t1) (join t2)))`)
	if len(rep.Races) == 0 {
		t.Fatal("atomic-vs-lock conflict missed")
	}
}

// Mixed atomic writers do not race with each other even without locks.
func TestAtomicVsAtomicNoRace(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (a) unit (atomic (set-field! counter v 1)))
	  (define (b) unit (atomic (set-field! counter v 2)))
	  (define (main) unit
	    (let ((t1 (spawn (a))) (t2 (spawn (b))))
	      (join t1) (join t2)))`)
	if len(rep.Races) != 0 {
		t.Fatalf("two atomics flagged: %v", rep.Races[0])
	}
}

// Accesses in code never reachable from a spawn site cannot race: a helper
// called only from main (single-threaded) and an uncalled function both
// write unsynchronised, yet no pair is concurrent.
func TestNeverSpawnedAccessesNoRace(t *testing.T) {
	rep := analyze(t, counterHeader+`
	  (define (helper) unit (set-field! counter v 1))
	  (define (deadcode) unit (set-field! counter v 2))
	  (define (main) unit
	    (helper)
	    (set-field! counter v 3))`)
	if len(rep.Races) != 0 {
		t.Fatalf("non-concurrent accesses flagged: %v", rep.Races[0])
	}
	if len(rep.Accesses) == 0 {
		t.Fatal("accesses should still be recorded for reporting")
	}
}
