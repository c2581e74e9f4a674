package main

import (
	"fmt"
	"sort"
)

// scales fixes one benchmark scale per suite program, chosen so that an
// uninstrumented run on the fast dispatcher takes about 5 ms on a
// 2-core x86-64 host. The scales are part of the benchmark's inputs:
// changing one changes every number the benchmark reports.
var scales = map[string]float64{
	"compress":  0.03,
	"db":        0.1,
	"mpegaudio": 0.1,
	"jack":      0.12,
	"volano":    0.05,
	"jess":      0.015,
	"javac":     0.03,
	"mtrt":      0.03,
	"optc":      0.03,
	"pbob":      0.03,
}

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// benches are the suite programs the workload draws from.
	benches []string
	// http marks workloads that drive isampd/isampfleet over HTTP;
	// the others call the layers' Go functions in process.
	http bool
	// fleet puts isampfleet in front of two single-slot workers.
	fleet bool
	// hot repeats specs from a warmed working set.
	hot bool
}

var (
	loopBenches = []string{"compress", "db", "mpegaudio", "jack", "volano"}
	callBenches = []string{"jess", "javac", "mtrt", "optc", "pbob"}
	allBenches  = append(append([]string(nil), loopBenches...), callBenches...)
)

var workloads = []workload{
	{name: "kernels", benches: loopBenches},
	{name: "calls", benches: callBenches},
	{name: "service", benches: allBenches, http: true},
	{name: "service-hot", benches: allBenches, http: true, hot: true},
	{name: "fleet", benches: allBenches, http: true, fleet: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Variation names of the in-process configurations. "base" is the
// uninstrumented program, "exhaustive" instruments every event, and the
// rest apply the sampling framework (full-yp is full duplication with
// the yieldpoint optimization of the paper's §4.5).
var (
	sampledVariations = []string{"full", "partial", "nodup", "full-yp"}
	variations        = append([]string{"base", "exhaustive"}, sampledVariations...)
	intervals         = []int64{200, 1000, 5000}
)

// config is one in-process profiling configuration.
type config struct {
	Bench     string `json:"bench"`
	Variation string `json:"variation"`
	// Interval is the counter trigger's sample interval; 0 for base and
	// exhaustive, which never sample.
	Interval int64 `json:"interval,omitempty"`
}

func (c config) sampled() bool { return c.Interval > 0 }

func (c config) String() string {
	if c.sampled() {
		return fmt.Sprintf("%s/%s/%d", c.Bench, c.Variation, c.Interval)
	}
	return c.Bench + "/" + c.Variation
}

// roundSlots is one round of an in-process plan: every benchmark under
// every variation at every interval. Base and exhaustive ignore the
// interval, so they fill three slots each; that keeps every variation at
// the same share of the ops, which the host-overhead ratios rely on.
func roundSlots(benches []string) []config {
	var out []config
	for _, b := range benches {
		for _, v := range variations {
			for _, iv := range intervals {
				c := config{Bench: b, Variation: v}
				if v != "base" && v != "exhaustive" {
					c.Interval = iv
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// distinctConfigs lists each configuration of a round once, in a fixed
// order.
func distinctConfigs(benches []string) []config {
	seen := map[config]bool{}
	var out []config
	for _, c := range roundSlots(benches) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// configPlan returns op i's configuration for a seed. The plan is a
// sequence of rounds, each a seeded permutation of roundSlots, so every
// seed runs the same multiset of work in a different order: metrics
// compare across seeds, and the order still varies what runs beside
// what.
type configPlan struct {
	seed  int64
	slots []config
}

func newConfigPlan(seed int64, benches []string) configPlan {
	return configPlan{seed: seed, slots: roundSlots(benches)}
}

func (p configPlan) op(i int) config {
	n := len(p.slots)
	return p.slots[newRNG(p.seed, i/n).perm(n)[i%n]]
}

// rng is a splitmix64 stream: cheap enough to derive one per op.
type rng uint64

// newRNG returns the stream for a seed and an index.
func newRNG(seed int64, i int) *rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a permutation of [0, n) by Fisher-Yates.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// jobSpec is the subset of the isampd POST /v1/jobs body the benchmark
// generates. It is declared here rather than imported so the HTTP
// workloads depend only on the daemons' wire format.
type jobSpec struct {
	Bench      string   `json:"bench"`
	Scale      float64  `json:"scale"`
	Instrument []string `json:"instrument"`
	Variation  string   `json:"variation,omitempty"`
	Trigger    string   `json:"trigger"`
	Interval   int64    `json:"interval"`
	Period     uint64   `json:"period,omitempty"`
	Verify     bool     `json:"verify,omitempty"`
}

var (
	httpVariations = []string{"", "full", "partial", "nodup", "hybrid"}
	httpTriggers   = []string{"counter", "perthread", "random", "timer"}
	// httpInstruments are the 1- and 2-instrumentation sets; the
	// exhaustive reference for all of them comes from one run with both.
	httpInstruments = [][]string{{"call-edge"}, {"field-access"}, {"call-edge", "field-access"}}
)

// specPlan returns the HTTP workloads' op i spec for a seed. Like
// configPlan it is a sequence of rounds, each a seeded permutation of
// one spec per benchmark and variation. A spec's instrumentation set,
// trigger kind, interval and verify flag are drawn from its round and
// slot, not from the seed: every seed submits the same specs, in a
// different order. Intervals come from [100, 10000], so two ops almost
// never share a cell key and the daemon's memo table is not hit.
type specPlan struct {
	seed    int64
	benches []string
}

func newSpecPlan(seed int64, benches []string) specPlan {
	return specPlan{seed: seed, benches: benches}
}

func (p specPlan) size() int { return len(p.benches) * len(httpVariations) }

func (p specPlan) op(i int) jobSpec {
	n := p.size()
	return p.spec(i/n, newRNG(p.seed, i/n).perm(n)[i%n])
}

// spec is slot's spec in a round.
func (p specPlan) spec(round, slot int) jobSpec {
	r := newRNG(0x5bd1e995, round*p.size()+slot)
	b := p.benches[slot/len(httpVariations)]
	s := jobSpec{
		Bench:      b,
		Scale:      scales[b],
		Instrument: httpInstruments[r.intn(len(httpInstruments))],
		Variation:  httpVariations[slot%len(httpVariations)],
		Trigger:    httpTriggers[r.intn(len(httpTriggers))],
		Interval:   100 + int64(r.intn(9901)),
		Verify:     r.intn(10) == 0,
	}
	if s.Trigger == "timer" {
		// The daemon's default timer period outlasts these short runs;
		// scale it with the interval so a timer job takes samples too.
		s.Period = uint64(s.Interval) * 100
	}
	return s
}

// hotSetSize is the number of distinct specs service-hot repeats.
const hotSetSize = 32

// hotSet is service-hot's working set: 32 specs of the first round of
// the service plan, the same for every seed.
func hotSet(benches []string) []jobSpec {
	p := newSpecPlan(0, benches)
	slots := newRNG(0x27d4eb2f, 0).perm(p.size())[:hotSetSize]
	out := make([]jobSpec, hotSetSize)
	for i, slot := range slots {
		out[i] = p.spec(0, slot)
	}
	return out
}

// hotIndex picks which working-set spec service-hot's op i repeats:
// rounds of seeded permutations of the working set.
func hotIndex(seed int64, i int) int {
	return newRNG(seed, i/hotSetSize).perm(hotSetSize)[i%hotSetSize]
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
