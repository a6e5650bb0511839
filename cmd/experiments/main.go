// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	experiments [-only fig5,table1] [-seed N] [-csv dir] [-markdown] [-workers N]
//
// The experiments run in table order: report.Experiments (the paper's
// figures and table, the extension studies, chaos and the metrics run),
// then the ablation, sleepstates and loadshapes studies, which the
// generated report leaves out. -only picks a subset by name; an unknown
// name is a usage error (exit 2) that lists the valid ones.
//
// With -csv, the temperature/duty/frequency time series behind each
// figure are written as CSV files into the given directory, ready for
// plotting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"thermctl/internal/experiment"
	"thermctl/internal/report"
	"thermctl/internal/trace"
)

// studies are the experiments the generated report leaves out; they
// run after report.Experiments.
var studies = []report.Experiment{
	{Name: "ablation", Run: func(_ *report.All, s uint64) (fmt.Stringer, error) { return experiment.Ablation(s) }},
	{Name: "sleepstates", Run: func(_ *report.All, s uint64) (fmt.Stringer, error) { return experiment.SleepStates(s) }},
	{Name: "loadshapes", Run: func(_ *report.All, s uint64) (fmt.Stringer, error) { return experiment.LoadShapes(s) }},
}

// table is every experiment the command runs, in run order.
var table = append(append([]report.Experiment(nil), report.Experiments...), studies...)

type seriesMap = map[string]*trace.Series

// figureSeries gives, by experiment name, the time series behind each
// figure that -csv writes to <name>.csv.
var figureSeries = map[string]func(a *report.All) seriesMap{
	"fig2": func(a *report.All) seriesMap { return seriesMap{"temp": a.Fig2.Temp} },
	"fig5": func(a *report.All) seriesMap {
		m := seriesMap{}
		for _, row := range a.Fig5.Rows {
			m[fmt.Sprintf("temp_pp%d", row.Pp)] = row.Temp
			m[fmt.Sprintf("duty_pp%d", row.Pp)] = row.Duty
		}
		return m
	},
	"fig6": func(a *report.All) seriesMap {
		m := seriesMap{}
		for _, row := range a.Fig6.Rows {
			m["temp_"+row.Method] = row.Temp
			m["duty_"+row.Method] = row.Duty
		}
		return m
	},
	"fig7": func(a *report.All) seriesMap {
		m := seriesMap{}
		for _, row := range a.Fig7.Rows {
			m[fmt.Sprintf("temp_cap%.0f", row.MaxDuty)] = row.Temp
			m[fmt.Sprintf("duty_cap%.0f", row.MaxDuty)] = row.Duty
		}
		return m
	},
	"fig8": func(a *report.All) seriesMap { return seriesMap{"temp": a.Fig8.Temp, "freq": a.Fig8.Freq} },
	"fig9": func(a *report.All) seriesMap {
		m := seriesMap{}
		for _, row := range a.Fig9.Rows {
			m["temp_"+row.Daemon] = row.Temp
			m["freq_"+row.Daemon] = row.Freq
		}
		return m
	},
	"fig10": func(a *report.All) seriesMap {
		m := seriesMap{}
		for _, row := range a.Fig10.Rows {
			m[fmt.Sprintf("temp_pp%d", row.Pp)] = row.Temp
			m[fmt.Sprintf("freq_pp%d", row.Pp)] = row.Freq
		}
		return m
	},
}

// usageError is a mistake on the command line; main exits 2 on it, as
// the flag package does.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(names(table), ","))
	seed := fs.Uint64("seed", experiment.Seed, "simulation seed")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV series into")
	markdown := fs.Bool("markdown", false, "emit the full generated reproduction report as markdown and exit")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines stepping each cluster (results are identical for any value)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *workers < 1 {
		return usageError{fmt.Errorf("-workers %d: need at least one worker", *workers)}
	}
	experiment.Workers = *workers

	if *markdown {
		all, err := report.Collect(*seed)
		if err != nil {
			return err
		}
		return all.Markdown(stdout)
	}

	picked, err := pick(*only)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	a := &report.All{}
	for _, e := range picked {
		r, err := e.Run(a, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(stdout, r)
		if series := figureSeries[e.Name]; series != nil && *csvDir != "" {
			if err := writeSeries(stdout, *csvDir, e.Name+".csv", series(a)); err != nil {
				return err
			}
		}
	}
	return nil
}

// pick returns the experiments named in only (comma-separated, any
// case) in table order, or the whole table when only is empty.
func pick(only string) ([]report.Experiment, error) {
	if only == "" {
		return table, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		if k = strings.TrimSpace(strings.ToLower(k)); k != "" {
			want[k] = true
		}
	}
	var out []report.Experiment
	for _, e := range table {
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for k := range want {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		return nil, usageError{fmt.Errorf("-only: unknown experiment %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(names(table), ","))}
	}
	return out, nil
}

func names(es []report.Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

func writeSeries(stdout io.Writer, dir, name string, series seriesMap) error {
	rec := trace.NewRecorder()
	// Record in sorted label order: the recorder's first-recorded order
	// determines the CSV column order, which must not vary run to run.
	labels := make([]string, 0, len(series))
	for label := range series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		s := series[label]
		if s == nil {
			continue
		}
		for _, p := range s.Points {
			rec.Record(label, p.T, p.V)
		}
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s\n", path)
	return nil
}
