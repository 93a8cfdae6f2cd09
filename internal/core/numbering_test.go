package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestMetricNumbering checks first-appearance numbering against a plain
// map on orders that hit and miss the successor guess: a repeating
// interval, interleaved and returning names, and equal names in
// different backing arrays.
func TestMetricNumbering(t *testing.T) {
	orders := map[string][]string{
		"intervals":   strings.Split("a b c d a b c d a b c d", " "),
		"interleaved": strings.Split("a b a c b c c a d b a e d", " "),
		"cloned":      {"x", strings.Clone("x"), "y", strings.Clone("y"), strings.Clone("x")},
		"empty name":  {"", "a", "", "", "a"},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			nu := NewMetricNumbering()
			defer nu.Release()
			ref := map[string]uint32{}
			var names []string
			for pass := 0; pass < 2; pass++ {
				for i, m := range order {
					want, seen := ref[m]
					if !seen {
						want = uint32(len(ref))
						ref[m] = want
						names = append(names, m)
					}
					id, fresh := nu.ID(m)
					if id != want || fresh == seen {
						t.Fatalf("pass %d, name %d (%q): ID = %d, fresh %v; want %d, fresh %v", pass, i, m, id, fresh, want, !seen)
					}
				}
			}
			if got := nu.Names(); strings.Join(got, ",") != strings.Join(names, ",") {
				t.Fatalf("Names() = %q, want %q", got, names)
			}
		})
	}
}

// TestMetricNumberingPooled checks that a numbering comes back from the
// pool empty and that numbering a perf-stat-shaped feed allocates nothing
// once the pool is warm.
func TestMetricNumberingPooled(t *testing.T) {
	var events []string
	for i := 0; i < 68; i++ {
		events = append(events, fmt.Sprintf("event.%d", i))
	}
	number := func() {
		nu := NewMetricNumbering()
		for w := 0; w < 30; w++ {
			for _, e := range events {
				nu.ID(e)
			}
		}
		if len(nu.Names()) != len(events) {
			t.Fatalf("%d names numbered, want %d", len(nu.Names()), len(events))
		}
		nu.Release()
	}
	number()
	// The race detector makes sync.Pool drop a share of its Puts.
	if allocs := testing.AllocsPerRun(100, number); allocs != 0 && !raceEnabled {
		t.Errorf("numbering %d events 30 times: %v allocs per run, want 0", len(events), allocs)
	}
	nu := NewMetricNumbering()
	defer nu.Release()
	if id, fresh := nu.ID("z"); len(nu.Names()) != 1 || id != 0 || !fresh {
		t.Fatalf("a pooled numbering was not empty: ID(\"z\") = %d, %v, names %q", id, fresh, nu.Names())
	}
}
