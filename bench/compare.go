package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare uses.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords reads the run records (untraced only) in a file holding
// the output of one or more runs, grouped by workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Trace != 0 {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// verdict applies the acceptance rule to paired runs of one metric on
// one workload. parent[i] and change[i] are the i-th runs of each side.
// The change is improved when it wins at least nine tenths of the pairs
// and the medians differ by more than the parent's interquartile range;
// worse when its median is worse than the parent's by more than bound
// (a share of the parent's median); unresolved when the parent's own
// spread exceeds the bound and not every change run beats, or loses to,
// every parent run; unchanged otherwise.
func verdict(parent, change []float64, lowerIsBetter bool, bound float64) (wins float64, v string) {
	better := func(a, b float64) bool {
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	n := min(len(parent), len(change))
	won := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			won++
		}
	}
	wins = float64(won) / float64(n)
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if wins >= 0.9 && better(mc, mp) && math.Abs(mc-mp) > q3-q1 {
		return wins, "improved"
	}
	all := func(f func(c, p float64) bool) bool {
		for _, c := range change {
			for _, p := range parent {
				if !f(c, p) {
					return false
				}
			}
		}
		return true
	}
	separated := all(better) || all(func(c, p float64) bool { return better(p, c) })
	if (q3-q1)/math.Abs(mp) > bound && !separated {
		return wins, "unresolved"
	}
	worseBy := (mc - mp) / math.Abs(mp)
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return wins, "worse"
	}
	return wins, "unchanged"
}

// compareFiles prints, for each end-to-end metric and workload, both
// sides' medians, the parent's interquartile range, the share of pairs
// the change won and the verdict.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if len(change[name]) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", parentPath, changePath)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent median\tparent IQR\tchange median\twon\tbound\tverdict")
	for _, name := range names {
		ps, cs := parent[name], change[name]
		n := min(len(ps), len(cs))
		for _, m := range spec.EndToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i], cv[i] = ps[i].Metrics[m.Name], cs[i].Metrics[m.Name]
			}
			q1, q3 := quartiles(pv)
			wins, v := verdict(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g %s\t%.3g\t%.6g %s\t%.0f%%\t%.0f%%\t%s\n",
				name, m.Name, n, median(pv), m.Unit, q3-q1, median(cv), m.Unit, 100*wins, 100*m.Bound, v)
		}
	}
	return tw.Flush()
}
