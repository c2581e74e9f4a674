package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"instrsample/internal/compile"
	"instrsample/internal/experiment"
	"instrsample/internal/oracle"
	"instrsample/internal/scenario"
	"instrsample/internal/vm"
)

// cmdScenario runs seeded workload families as correctness probes:
// every selected family member executes under the runtime invariant
// oracle on BOTH dispatchers and the results must be bit-identical.
// -record serializes one run's trigger and schedule decisions to a
// portable JSON recording; -replay re-executes a recording and
// differentially checks it. The family hash printed at the end is the
// replay receipt: two machines printing the same hash expanded
// byte-identical program sets.
func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "family spec JSON file (see DESIGN.md §13)")
		seed       = fs.Uint64("seed", 0x5ced5, "quick family seed (ignored with -spec)")
		count      = fs.Int("count", 4, "quick family size (ignored with -spec)")
		index      = fs.Int("index", -1, "family member to run (-1 = all)")
		recordPath = fs.String("record", "", "write the run's decision recording as JSON (single member)")
		replayPath = fs.String("replay", "", "replay a recorded run and verify bit-identity (single member)")
		hashOnly   = fs.Bool("hash", false, "print the family hash and exit without running")
	)
	o := &options{}
	fs.StringVar(&o.instrument, "instrument", "call-edge", "instrumentations")
	fs.StringVar(&o.variation, "variation", "full", "framework variation")
	fs.Int64Var(&o.interval, "interval", experiment.DefaultInterval, "sample interval")
	fs.StringVar(&o.trig, "trigger", "counter", "trigger kind")
	fs.Uint64Var(&o.period, "period", experiment.DefaultPeriod, "timer period (cycles)")
	fs.Int64Var(&o.jitter, "jitter", 0, "randomized trigger jitter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("scenario takes no positional arguments")
	}
	spec, err := o.optsSpec()
	if err != nil {
		return err
	}
	trig, err := experiment.NamedTrigger(o.trig, o.interval, o.period, o.jitter)
	if err != nil {
		return err
	}

	fam, err := loadFamily(*specPath, *seed, *count)
	if err != nil {
		return err
	}
	famHash, err := fam.Hash()
	if err != nil {
		return err
	}
	if *hashOnly {
		fmt.Printf("family %s: %d programs\nhash: %s\n", fam.Name, fam.Count, famHash)
		return nil
	}

	first, last := 0, fam.Count-1
	if *index >= 0 {
		if *index >= fam.Count {
			return fmt.Errorf("-index %d out of range [0, %d)", *index, fam.Count)
		}
		first, last = *index, *index
	}
	if (*recordPath != "" || *replayPath != "") && first != last {
		return fmt.Errorf("-record/-replay need a single member; add -index N")
	}
	if *recordPath != "" && *replayPath != "" {
		return fmt.Errorf("-record and -replay are mutually exclusive")
	}

	for i := first; i <= last; i++ {
		prog, err := fam.Program(i)
		if err != nil {
			return err
		}
		res, err := spec.Compile(prog)
		if err != nil {
			return fmt.Errorf("%s/%d: %w", fam.Name, i, err)
		}
		switch {
		case *replayPath != "":
			if err := replayMember(fam, i, res, *replayPath); err != nil {
				return err
			}
		case *recordPath != "":
			if err := recordMember(fam, i, trig, res, *recordPath); err != nil {
				return err
			}
		default:
			if err := probeMember(fam, i, trig, res); err != nil {
				return err
			}
		}
	}
	fmt.Printf("family hash: %s\n", famHash)
	return nil
}

// loadFamily reads the spec file, or builds the default-shaped quick
// family from -seed/-count.
func loadFamily(path string, seed uint64, count int) (*scenario.Family, error) {
	if path == "" {
		fam := scenario.DefaultFamily(seed, count)
		if err := fam.Validate(); err != nil {
			return nil, err
		}
		return fam, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.ReadFamily(f)
}

// probeMember runs one family member under the oracle on both
// dispatchers and requires bit-identical results.
func probeMember(fam *scenario.Family, i int, trig experiment.TriggerSpec, res *compile.Result) error {
	var outs [2]*vm.Result
	for d, ref := range []bool{false, true} {
		orc := oracle.New()
		var err error
		outs[d], err = vm.New(res.Prog, vm.Config{
			Trigger:   trig.New(),
			Handlers:  res.Handlers,
			Observer:  orc,
			Reference: ref,
		}).Run()
		if err != nil {
			return fmt.Errorf("%s/%d (reference=%v): %w", fam.Name, i, ref, err)
		}
		if err := orc.Finish(outs[d].Stats); err != nil {
			return fmt.Errorf("%s/%d (reference=%v): oracle: %w", fam.Name, i, ref, err)
		}
	}
	if outs[0].Stats != outs[1].Stats || outs[0].Return != outs[1].Return {
		return fmt.Errorf("%s/%d: dispatchers diverge:\n  fast:      %+v\n  reference: %+v",
			fam.Name, i, outs[0].Stats, outs[1].Stats)
	}
	s := outs[0].Stats
	fmt.Printf("%s/%d: ok  cycles=%d instrs=%d checks=%d samples=%d probes=%d  (oracle clean, dispatchers bit-identical)\n",
		fam.Name, i, s.Cycles, s.Instrs, s.Checks, s.CheckFires, s.Probes)
	return nil
}

// recordMember records one member's run (oracle installed), verifies
// the recording replays on both dispatchers, and writes it as JSON.
func recordMember(fam *scenario.Family, i int, trig experiment.TriggerSpec, res *compile.Result, path string) error {
	orc := oracle.New()
	rec, live, err := scenario.Record(res.Prog, vm.Config{
		Trigger:  trig.New(),
		Handlers: res.Handlers,
		Observer: orc,
	})
	if err != nil {
		return fmt.Errorf("%s/%d: %w", fam.Name, i, err)
	}
	if err := orc.Finish(live.Stats); err != nil {
		return fmt.Errorf("%s/%d: oracle: %w", fam.Name, i, err)
	}
	for _, ref := range []bool{false, true} {
		if _, err := scenario.Replay(res.Prog, vm.Config{Handlers: res.Handlers, Reference: ref}, rec); err != nil {
			return fmt.Errorf("%s/%d: recording failed self-replay (reference=%v): %w", fam.Name, i, ref, err)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s/%d: recorded %d trigger polls (%d fires), %d schedule picks -> %s\n",
		fam.Name, i, rec.Trigger.Polls, rec.Trigger.Fires, rec.Sched.Picks, path)
	return nil
}

// replayMember replays a recording against one member on both
// dispatchers.
func replayMember(fam *scenario.Family, i int, res *compile.Result, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec scenario.Recording
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, ref := range []bool{false, true} {
		if _, err := scenario.Replay(res.Prog, vm.Config{Handlers: res.Handlers, Reference: ref}, &rec); err != nil {
			return fmt.Errorf("%s/%d (reference=%v): %w", fam.Name, i, ref, err)
		}
	}
	fmt.Printf("%s/%d: replay ok on both dispatchers (%d polls, %d picks, stats bit-identical)\n",
		fam.Name, i, rec.Trigger.Polls, rec.Sched.Picks)
	return nil
}
