package profile

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicCounting(t *testing.T) {
	p := New("t")
	p.Inc(1)
	p.Inc(1)
	p.Add(2, 5)
	if p.Total() != 7 || p.NumEvents() != 2 {
		t.Fatalf("total %d events %d", p.Total(), p.NumEvents())
	}
	if p.Count(1) != 2 || p.Count(2) != 5 || p.Count(3) != 0 {
		t.Fatal("counts wrong")
	}
	p.Reset()
	if p.Total() != 0 || p.NumEvents() != 0 {
		t.Fatal("reset failed")
	}
}

func TestEntriesSortedDeterministically(t *testing.T) {
	p := New("t")
	p.Add(10, 5)
	p.Add(20, 5)
	p.Add(30, 9)
	es := p.Entries()
	if es[0].Key != 30 {
		t.Errorf("entries[0] = %d, want 30", es[0].Key)
	}
	// Tie broken by key.
	if es[1].Key != 10 || es[2].Key != 20 {
		t.Errorf("tie order: %v", es)
	}
	if math.Abs(es[0].Percent-9.0/19*100) > 1e-9 {
		t.Errorf("percent = %f", es[0].Percent)
	}
}

func TestOverlapIdentical(t *testing.T) {
	p := New("a")
	p.Add(1, 100)
	p.Add(2, 50)
	if ov := Overlap(p, p); math.Abs(ov-100) > 1e-9 {
		t.Errorf("self overlap = %f", ov)
	}
	// Scaled copies are distribution-identical.
	q := New("b")
	q.Add(1, 10)
	q.Add(2, 5)
	if ov := Overlap(p, q); math.Abs(ov-100) > 1e-9 {
		t.Errorf("scaled overlap = %f", ov)
	}
}

func TestOverlapDisjointAndPartial(t *testing.T) {
	a := New("a")
	a.Add(1, 10)
	b := New("b")
	b.Add(2, 10)
	if ov := Overlap(a, b); ov != 0 {
		t.Errorf("disjoint overlap = %f", ov)
	}
	// a: 50/50 on keys {1,2}; b: 100% on key 1 -> overlap 50.
	a2 := New("a2")
	a2.Add(1, 5)
	a2.Add(2, 5)
	b2 := New("b2")
	b2.Add(1, 7)
	if ov := Overlap(a2, b2); math.Abs(ov-50) > 1e-9 {
		t.Errorf("partial overlap = %f, want 50", ov)
	}
}

func TestOverlapEmpty(t *testing.T) {
	a, b := New("a"), New("b")
	if ov := Overlap(a, b); ov != 100 {
		t.Errorf("empty-empty overlap = %f, want 100", ov)
	}
	b.Inc(1)
	if ov := Overlap(a, b); ov != 0 {
		t.Errorf("empty-nonempty overlap = %f, want 0", ov)
	}
}

func TestClone(t *testing.T) {
	p := New("t")
	p.Add(1, 3)
	q := p.Clone()
	q.Add(1, 1)
	if p.Count(1) != 3 || q.Count(1) != 4 {
		t.Error("clone shares state")
	}
}

func TestFprintAndLabeler(t *testing.T) {
	p := New("t")
	p.Labeler = func(k uint64) string { return "key-" + string(rune('A'+k)) }
	p.Add(0, 3)
	p.Add(1, 1)
	var sb strings.Builder
	p.Fprint(&sb, 1)
	out := sb.String()
	if !strings.Contains(out, "key-A") {
		t.Errorf("labeler unused: %s", out)
	}
	if strings.Contains(out, "key-B") {
		t.Errorf("top-1 printed more than one entry: %s", out)
	}
	if !strings.Contains(p.String(), "key-A") {
		t.Error("String() broken")
	}
}

// Property tests on the overlap metric (DESIGN.md invariant 6).

func mkProfile(counts []uint8) *Profile {
	p := New("q")
	for i, c := range counts {
		if c > 0 {
			p.Add(uint64(i), uint64(c))
		}
	}
	return p
}

func TestQuickOverlapBounds(t *testing.T) {
	f := func(a, b []uint8) bool {
		pa, pb := mkProfile(a), mkProfile(b)
		ov := Overlap(pa, pb)
		return ov >= 0 && ov <= 100+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapSymmetric(t *testing.T) {
	f := func(a, b []uint8) bool {
		pa, pb := mkProfile(a), mkProfile(b)
		return math.Abs(Overlap(pa, pb)-Overlap(pb, pa)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapSelfIs100(t *testing.T) {
	f := func(a []uint8) bool {
		pa := mkProfile(a)
		if pa.Total() == 0 {
			return Overlap(pa, pa) == 100
		}
		return math.Abs(Overlap(pa, pa)-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapScaleInvariant(t *testing.T) {
	f := func(a []uint8, k uint8) bool {
		scale := uint64(k%7) + 2
		pa := mkProfile(a)
		pb := New("scaled")
		for i, c := range a {
			if c > 0 {
				pb.Add(uint64(i), uint64(c)*scale)
			}
		}
		if pa.Total() == 0 {
			return true
		}
		return math.Abs(Overlap(pa, pb)-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlapHandComputed pins Overlap on asymmetric-support profiles
// against by-hand min-share sums (the §4.4 metric).
func TestOverlapHandComputed(t *testing.T) {
	mk := func(counts map[uint64]uint64) *Profile {
		p := New("t")
		for k, n := range counts {
			p.Add(k, n)
		}
		return p
	}
	cases := []struct {
		name string
		a, b map[uint64]uint64
		want float64
	}{
		{
			// b splits its mass over a superset of a's support:
			// min(1, .5) = .5.
			name: "subset support",
			a:    map[uint64]uint64{1: 3},
			b:    map[uint64]uint64{1: 1, 2: 1},
			want: 50,
		},
		{
			// a: .25/.25/.50 over {1,2,3}; b: .6/.2/.2 over {2,3,4}.
			// Shared keys 2 and 3: min(.25,.6) + min(.5,.2) = .45.
			name: "mixed support",
			a:    map[uint64]uint64{1: 2, 2: 2, 3: 4},
			b:    map[uint64]uint64{2: 6, 3: 2, 4: 2},
			want: 45,
		},
		{
			// Distribution-identical despite a 2^61-fold count gap —
			// the metric must normalize before comparing.
			name: "extreme count magnitudes",
			a:    map[uint64]uint64{1: 1 << 62, 2: 1 << 62},
			b:    map[uint64]uint64{1: 2, 2: 2},
			want: 100,
		},
		{
			// Inverted skew: both shares on each key are tiny on one
			// side, so almost nothing overlaps.
			name: "inverted skew",
			a:    map[uint64]uint64{1: 1, 2: 9999},
			b:    map[uint64]uint64{1: 9999, 2: 1},
			want: 100 * 2.0 / 10000.0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pa, pb := mk(tc.a), mk(tc.b)
			if ov := Overlap(pa, pb); math.Abs(ov-tc.want) > 1e-9 {
				t.Errorf("Overlap(a,b) = %f, want %f", ov, tc.want)
			}
			if ov := Overlap(pb, pa); math.Abs(ov-tc.want) > 1e-9 {
				t.Errorf("Overlap(b,a) = %f, want %f", ov, tc.want)
			}
		})
	}
}

// TestOverlapBitIdentical: equal profiles give the same overlap, bit for
// bit, however the profiles' maps iterate. A job result carries the
// value, and a cached or reused result must be byte-identical to a
// fresh one.
func TestOverlapBitIdentical(t *testing.T) {
	a, b := New("a"), New("b")
	for k := uint64(0); k < 64; k++ {
		a.Add(k, 1+k*k%7)
		b.Add(k, 1+k*k%5)
	}
	want := math.Float64bits(Overlap(a, b))
	for range 200 {
		if got := math.Float64bits(Overlap(a.Clone(), b.Clone())); got != want {
			t.Fatalf("Overlap = %v, then %v", math.Float64frombits(want), math.Float64frombits(got))
		}
	}
}
