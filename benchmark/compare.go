package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runsFile holds the end-to-end metrics of repeated runs: per workload,
// per metric, one value per run in run order. Two such files measured
// as alternating pairs are what -compare judges.
type runsFile struct {
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Failed  int                             `json:"failed"` // operations failed, all runs
	Runs    map[string]map[string][]float64 `json:"runs"`
}

func (rf *runsFile) add(workload string, line resultLine) {
	if rf.Runs[workload] == nil {
		rf.Runs[workload] = map[string][]float64{}
	}
	for name, v := range line.Metrics {
		rf.Runs[workload][name] = append(rf.Runs[workload][name], v.Value)
	}
	rf.Failed += line.Failed
}

func (rf *runsFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runBinary runs one untraced workload in a fresh process of the given
// benchmark binary and parses its result line.
func runBinary(bin string, w workload, cfg config) (resultLine, error) {
	args := []string{
		"-workload", w.Name, "-json", "-trace", "0",
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.opsMul*refSeconds, 'g', -1, 64),
	}
	if cfg.dir != "" {
		args = append(args, "-dir", cfg.dir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	var line resultLine
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		if err != nil {
			return line, fmt.Errorf("%s %s: %w", bin, w.Name, err)
		}
		return line, fmt.Errorf("%s %s: bad result line: %w", bin, w.Name, jerr)
	}
	return line, nil // a run with failed operations exits 1 but still reports
}

// repeatRuns runs every selected workload n times, each run a fresh
// process of this binary. With a second binary the two run as
// alternating pairs — this one first in even pairs, the other first in
// odd ones — which is how a parent and a change are measured against
// each other.
func repeatRuns(selected []workload, cfg config, n int, out, other, otherOut string) error {
	if out == "" || (other != "") != (otherOut != "") {
		return fmt.Errorf("-repeat needs -out, and -other needs -other-out")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	files := map[string]*runsFile{}
	sides := []string{self}
	files[self] = &runsFile{Seed: cfg.seed, Seconds: cfg.opsMul * refSeconds, Runs: map[string]map[string][]float64{}}
	if other != "" {
		sides = append(sides, other)
		files[other] = &runsFile{Seed: cfg.seed, Seconds: cfg.opsMul * refSeconds, Runs: map[string]map[string][]float64{}}
	}
	for i := 0; i < n; i++ {
		for _, w := range selected {
			order := sides
			if i%2 == 1 && len(sides) == 2 {
				order = []string{sides[1], sides[0]}
			}
			for _, bin := range order {
				line, err := runBinary(bin, w, cfg)
				if err != nil {
					return err
				}
				files[bin].add(w.Name, line)
				fmt.Fprintf(os.Stderr, "pair %d/%d %-13s %s failed=%d\n", i+1, n, w.Name, bin, line.Failed)
			}
		}
	}
	if err := files[self].write(out); err != nil {
		return err
	}
	if other != "" {
		return files[other].write(otherOut)
	}
	return nil
}

// quartiles returns the three cut points of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which is what
// the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict judges one metric on one workload: old and new hold one value
// per run, paired by position.
func verdict(m metric, old, new []float64) string {
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(new)
	if omed == 0 {
		return "no-baseline"
	}
	sign := 1.0 // positive worse = the metric got worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (nmed - omed) / omed
	if worse > m.Bound {
		return "REGRESSION"
	}
	pairs, wins := min(len(old), len(new)), 0
	for i := 0; i < pairs; i++ {
		if sign*(new[i]-old[i]) < 0 {
			wins++
		}
	}
	if worse < 0 && 10*wins >= 9*pairs && sign*(omed-nmed) > oq3-oq1 {
		return "gain"
	}
	spread := max((oq3-oq1)/omed, ratio(nq3-nq1, nmed))
	if spread > m.Bound {
		allBetter := true
		for _, o := range old {
			for _, n := range new {
				if sign*(n-o) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "same"
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict; it reports whether anything
// regressed (a side with more failed operations counts).
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(old.Runs))
	for name := range old.Runs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-27s %36s   %36s  %8s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	for _, name := range names {
		for _, m := range endToEnd {
			o, n := old.Runs[name][m.Name], cur.Runs[name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			oq1, omed, oq3 := quartiles(o)
			nq1, nmed, nq3 := quartiles(n)
			v := verdict(m, o, n)
			regressed = regressed || v == "REGRESSION"
			fmt.Fprintf(w, "%-13s %-27s %12.4f [%10.4f, %10.4f]   %12.4f [%10.4f, %10.4f]  %+7.2f%%  %s\n",
				name, m.Name, omed, oq1, oq3, nmed, nq1, nq3, 100*ratio(nmed-omed, omed), v)
		}
	}
	if cur.Failed > old.Failed {
		fmt.Fprintf(w, "failed operations rose from %d to %d: REGRESSION\n", old.Failed, cur.Failed)
		regressed = true
	}
	return regressed, nil
}
