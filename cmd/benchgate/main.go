// Command benchgate maintains the bench trajectory and gates on it: it
// appends the current baseline documents (BENCH_throughput.json,
// BENCH_campaign.json, BENCH_fig*.json, BENCH_fleet.json,
// BENCH_decisions.json, BENCH_recovery.json) from -dir to
// BENCH_history.jsonl and diffs the newest entry against the previous
// one with direction-aware per-metric thresholds (warn past -warn %,
// fail past -fail % movement in the bad direction — throughput drops,
// recovery-latency p95 growth, availability and recovery-rate drops).
// Direction is per metric, not per document: a fleet's availability is
// higher-better while its request p99 is lower-better, and movement in
// the good direction never trips the gate.
//
//	benchgate -append -label $GITHUB_SHA      # record + gate
//	benchgate                                  # gate only, newest vs previous
//	benchgate -warn-only                       # report, never fail (override)
//
// With fewer than two history entries there is nothing to diff: the run
// reports the baseline and exits 0, so the gate is warn-only until a
// trajectory exists. Exit status: 0 ok/warn, 1 on a FAIL finding (unless
// -warn-only), 2 on operational errors (unreadable history, bad flags).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"resilientos/internal/bench/compare"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	history := fs.String("history", "BENCH_history.jsonl", "append-only bench trajectory file")
	dir := fs.String("dir", ".", "directory holding the BENCH_*.json documents to append")
	label := fs.String("label", "", "label for the appended entry (e.g. commit SHA)")
	doAppend := fs.Bool("append", false, "append the baseline documents in -dir to -history before diffing")
	warnOnly := fs.Bool("warn-only", false, "report regressions but always exit 0 (explicit gate override)")
	warn := fs.Float64("warn", compare.DefaultThresholds.WarnPct, "warn threshold: percent movement in the bad direction")
	fail := fs.Float64("fail", compare.DefaultThresholds.FailPct, "fail threshold: percent movement in the bad direction")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil // flag package already printed the error
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("usage: benchgate [-history file] [-dir dir] [-label l] [-append] [-warn-only] [-warn pct] [-fail pct]")
	}

	if *doAppend {
		e, err := compare.LoadEntry(*dir, *label)
		if err != nil {
			return 2, err
		}
		if e.Empty() {
			return 2, fmt.Errorf("no BENCH_*.json documents found in %s", *dir)
		}
		if err := compare.AppendHistory(*history, e); err != nil {
			return 2, err
		}
		fmt.Printf("appended entry %q to %s\n", *label, *history)
	}

	entries, err := compare.ReadHistoryFile(*history)
	if err != nil {
		return 2, err
	}
	if len(entries) < 2 {
		fmt.Printf("history %s has %d entr(y/ies); baseline only, nothing to gate\n",
			*history, len(entries))
		return 0, nil
	}
	report := compare.Diff(entries[len(entries)-2], entries[len(entries)-1],
		compare.Thresholds{WarnPct: *warn, FailPct: *fail})
	report.WriteText(os.Stdout)
	if report.Worst() == compare.Fail {
		if *warnOnly {
			fmt.Println("gate overridden (-warn-only): failing findings reported above")
			return 0, nil
		}
		return 1, fmt.Errorf("bench gate failed: regression past %.0f%% (rerun with -warn-only to override)", *fail)
	}
	return 0, nil
}
