// Package concurrent is the vocabulary of bitc's static shared-state story
// (the paper's challenge 4): shared accesses with the locksets held at them,
// and the Eraser-style pairing of conflicting accesses into races. The
// accesses themselves are collected by the function summaries in
// internal/analysis; core.(*Program).Races and the race checker
// (BITC-RACE001) both report what FindRaces pairs from them.
package concurrent

import (
	"fmt"
	"sort"
	"strings"

	"bitc/internal/source"
)

// Access is one read or write of a shared location.
type Access struct {
	Global  string // global variable holding the object
	Field   string
	Write   bool
	Span    source.Span
	Func    string
	Lockset []string // sorted lock names (and "atomic") held at the access
	Spawned bool     // reachable from a spawn site (i.e. a non-main thread)
}

// Race is a pair of conflicting accesses with disjoint locksets.
type Race struct {
	Location string // global.field
	A, B     Access
}

func (r Race) String() string {
	return fmt.Sprintf("potential race on %s: %s in %s holds {%s}; %s in %s holds {%s}",
		r.Location,
		rw(r.A.Write), r.A.Func, strings.Join(r.A.Lockset, ","),
		rw(r.B.Write), r.B.Func, strings.Join(r.B.Lockset, ","))
}

func rw(w bool) string {
	if w {
		return "write"
	}
	return "read"
}

// Report is the set of shared accesses and the races paired from them.
type Report struct {
	Accesses []Access
	Races    []Race
}

// FindRaces pairs conflicting accesses: same location, at least one write,
// at least one from a spawned thread (or both from different spawned code),
// and disjoint locksets.
func FindRaces(accesses []Access) []Race {
	byLoc := map[string][]Access{}
	for _, ac := range accesses {
		byLoc[ac.Global+"."+ac.Field] = append(byLoc[ac.Global+"."+ac.Field], ac)
	}
	var races []Race
	seen := map[string]bool{}
	var locs []string
	for loc := range byLoc {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	for _, loc := range locs {
		acs := byLoc[loc]
		for i := 0; i < len(acs); i++ {
			for j := i; j < len(acs); j++ {
				x, y := acs[i], acs[j]
				if !x.Write && !y.Write {
					continue
				}
				// Concurrency requires at least one access on a spawned
				// thread, and if both are the same access it must be
				// self-parallel (spawned code can run in two instances).
				if !x.Spawned && !y.Spawned {
					continue
				}
				if disjoint(x.Lockset, y.Lockset) {
					key := fmt.Sprintf("%s|%s|%s", loc, x.Func, y.Func)
					if !seen[key] {
						seen[key] = true
						races = append(races, Race{Location: loc, A: x, B: y})
					}
				}
			}
		}
	}
	return races
}

func disjoint(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return false
		}
	}
	return true
}
