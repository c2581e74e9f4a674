// Package profile provides the profile containers the instrumentation
// runtimes write into, and the overlap-percentage accuracy metric the
// paper uses in §4.4 to compare sampled profiles against the perfect
// profile.
//
// See DESIGN.md §3 (system inventory) and §5 (overlap-metric invariants).
package profile

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// Profile is a weighted multiset of events: a map from an event key to
// the number of times the event was observed. Keys are opaque uint64s;
// each instrumentation defines its own packing and can attach a Labeler
// for reports.
type Profile struct {
	// Name identifies the profile (e.g. "call-edge", "field-access").
	Name string
	// Labeler renders an event key for reports; nil means numeric.
	Labeler func(key uint64) string

	counts map[uint64]uint64
	total  uint64
}

// New returns an empty profile.
func New(name string) *Profile {
	return &Profile{Name: name, counts: make(map[uint64]uint64)}
}

// Add records n occurrences of the event.
func (p *Profile) Add(key uint64, n uint64) {
	p.counts[key] += n
	p.total += n
}

// Inc records one occurrence of the event.
func (p *Profile) Inc(key uint64) { p.Add(key, 1) }

// Count returns the number of occurrences recorded for key.
func (p *Profile) Count(key uint64) uint64 { return p.counts[key] }

// Total returns the total number of recorded events.
func (p *Profile) Total() uint64 { return p.total }

// NumEvents returns the number of distinct event keys.
func (p *Profile) NumEvents() int { return len(p.counts) }

// Reset clears the profile.
func (p *Profile) Reset() {
	p.counts = make(map[uint64]uint64)
	p.total = 0
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	q := New(p.Name)
	q.Labeler = p.Labeler
	for k, v := range p.counts {
		q.counts[k] = v
	}
	q.total = p.total
	return q
}

// Entry is a (key, count) pair with its share of the profile total.
type Entry struct {
	Key     uint64
	Count   uint64
	Percent float64
}

// Entries returns the profile's events sorted by descending count (ties
// broken by key for determinism).
func (p *Profile) Entries() []Entry {
	out := make([]Entry, 0, len(p.counts))
	for k, v := range p.counts {
		e := Entry{Key: k, Count: v}
		if p.total > 0 {
			e.Percent = 100 * float64(v) / float64(p.total)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Overlap computes the overlap percentage between two profiles, the
// accuracy metric of §4.4: each event contributes the minimum of its
// sample-percentages in the two profiles, and the total is the sum over
// all events. Identical distributions yield 100; disjoint ones yield 0.
// Two empty profiles are trivially identical (100); an empty profile
// against a non-empty one overlaps 0.
//
// The sum is exact: for totals A and B, an event counted ca and cb times
// adds the 128-bit integer min(ca·B, cb·A), and the sum is divided by
// A·B once, so equal profiles give the same bits whatever order their
// maps iterate in.
func Overlap(a, b *Profile) float64 {
	if a.total == 0 && b.total == 0 {
		return 100
	}
	if a.total == 0 || b.total == 0 {
		return 0
	}
	var hi, lo uint64 // the sum, at most A·B < 2^128
	for k, ca := range a.counts {
		cb, ok := b.counts[k]
		if !ok {
			continue
		}
		h, l := bits.Mul64(ca, b.total)
		if h2, l2 := bits.Mul64(cb, a.total); h2 < h || h2 == h && l2 < l {
			h, l = h2, l2
		}
		var carry uint64
		lo, carry = bits.Add64(lo, l, 0)
		hi += h + carry
	}
	th, tl := bits.Mul64(a.total, b.total)
	return 100 * uint128(hi, lo) / uint128(th, tl)
}

// uint128 converts the 128-bit integer hi·2^64 + lo to a float64.
func uint128(hi, lo uint64) float64 { return float64(hi)*0x1p64 + float64(lo) }

// label renders a key using the profile's labeler.
func (p *Profile) label(key uint64) string {
	if p.Labeler != nil {
		return p.Labeler(key)
	}
	return fmt.Sprintf("%#x", key)
}

// Fprint writes the top n entries of the profile to w (all entries if
// n <= 0).
func (p *Profile) Fprint(w io.Writer, n int) {
	entries := p.Entries()
	if n > 0 && n < len(entries) {
		entries = entries[:n]
	}
	fmt.Fprintf(w, "profile %s: %d events, %d samples\n", p.Name, p.NumEvents(), p.Total())
	for _, e := range entries {
		fmt.Fprintf(w, "  %8d  %6.2f%%  %s\n", e.Count, e.Percent, p.label(e.Key))
	}
}

// String returns the top-10 rendering of the profile.
func (p *Profile) String() string {
	var sb strings.Builder
	p.Fprint(&sb, 10)
	return sb.String()
}
