// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	experiments [-only fig5,table1] [-seed N] [-csv dir]
//
// With -csv, the temperature/duty/frequency time series behind each
// figure are written as CSV files into the given directory, ready for
// plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"thermctl/internal/experiment"
	"thermctl/internal/report"
	"thermctl/internal/trace"
)

func main() {
	only := flag.String("only", "", "comma-separated subset: fig2,fig5,fig6,fig7,fig8,fig9,table1,fig10,fanfailure,scaling,rack,workloads,ablation,sleepstates,loadshapes,metrics,chaos")
	seed := flag.Uint64("seed", experiment.Seed, "simulation seed")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV series into")
	markdown := flag.Bool("markdown", false, "emit the full generated reproduction report as markdown and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines stepping each cluster (results are identical for any value)")
	flag.Parse()
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -workers %d: need at least one worker\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	experiment.Workers = *workers

	if *markdown {
		all, err := report.Collect(*seed)
		if err != nil {
			fatal(err)
		}
		if err := all.Markdown(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if run("fig2") {
		r, err := experiment.Fig2(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		writeSeries(*csvDir, "fig2.csv", map[string]*trace.Series{"temp": r.Temp})
	}
	if run("fig5") {
		r, err := experiment.Fig5(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series[fmt.Sprintf("temp_pp%d", row.Pp)] = row.Temp
			series[fmt.Sprintf("duty_pp%d", row.Pp)] = row.Duty
		}
		writeSeries(*csvDir, "fig5.csv", series)
	}
	if run("fig6") {
		r, err := experiment.Fig6(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series["temp_"+row.Method] = row.Temp
			series["duty_"+row.Method] = row.Duty
		}
		writeSeries(*csvDir, "fig6.csv", series)
	}
	if run("fig7") {
		r, err := experiment.Fig7(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series[fmt.Sprintf("temp_cap%.0f", row.MaxDuty)] = row.Temp
			series[fmt.Sprintf("duty_cap%.0f", row.MaxDuty)] = row.Duty
		}
		writeSeries(*csvDir, "fig7.csv", series)
	}
	if run("fig8") {
		r, err := experiment.Fig8(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		writeSeries(*csvDir, "fig8.csv", map[string]*trace.Series{
			"temp": r.Temp, "freq": r.Freq,
		})
	}
	if run("fig9") {
		r, err := experiment.Fig9(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series["temp_"+row.Daemon] = row.Temp
			series["freq_"+row.Daemon] = row.Freq
		}
		writeSeries(*csvDir, "fig9.csv", series)
	}
	if run("table1") {
		r, err := experiment.Table1(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("fanfailure") {
		r, err := experiment.FanFailure(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("rack") {
		r, err := experiment.RackStudy(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("workloads") {
		r, err := experiment.WorkloadStudy(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("ablation") {
		r, err := experiment.Ablation(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("scaling") {
		r, err := experiment.Scaling(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("fig10") {
		r, err := experiment.Fig10(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series[fmt.Sprintf("temp_pp%d", row.Pp)] = row.Temp
			series[fmt.Sprintf("freq_pp%d", row.Pp)] = row.Freq
		}
		writeSeries(*csvDir, "fig10.csv", series)
	}
	if run("sleepstates") {
		r, err := experiment.SleepStates(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("loadshapes") {
		r, err := experiment.LoadShapes(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("chaos") {
		r, err := experiment.Chaos(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
	if run("metrics") {
		samples, err := report.CollectMetrics(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println("observability metrics (10-minute instrumented unified-control run):")
		for _, s := range samples {
			fmt.Printf("  %-45s %g\n", s.Name, s.Value)
		}
	}
}

func writeSeries(dir, name string, series map[string]*trace.Series) {
	if dir == "" {
		return
	}
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
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n", filepath.Join(dir, name))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
