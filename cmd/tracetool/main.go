// Command tracetool summarizes the span-tree traces pacramd
// (-trace DIR) and scenario run (-trace FILE) record: one JSONL line
// per span, one root span per simulation cell with its phases
// (store-get, pool-wait, compute, store-put, coalesce-wait — or, for
// fabric-dispatched cells, dispatch-wait and remote-compute) as
// children. Cells executed by fleet workers carry a "worker" attribute
// on the root span; when any are present the report opens with a
// fleet split attributing cells to machines, and the critical-path
// lines name the executing worker. Computed cells also carry the simulator's own wall-time
// split as sub-phases — sim-cores, sim-ctrl, sim-windows and
// sim-window-merge (see sim.Profile) — so the
// breakdown separates core ticking from controller work from
// channel-window advancement.
//
// Usage:
//
//	tracetool [-top N] [-buckets N] FILE
//
// FILE is a .trace.jsonl file ("-" reads stdin). The report has three
// sections:
//
//   - per-phase wall-clock breakdown: count, total, mean and max per
//     phase name across all cells;
//   - pool-utilization timeline: average concurrent compute spans per
//     time bucket across the trace's extent — gaps mean the pool sat
//     idle, a plateau at the worker count means it was saturated;
//   - critical path: the -top slowest cells, each root broken into its
//     phases with the untracked remainder, so the dominant phase of
//     the slowest work is visible at a glance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"pacram/internal/telemetry"
)

func main() {
	var (
		top     = flag.Int("top", 3, "slowest cells to expand in the critical-path section")
		buckets = flag.Int("buckets", 20, "time buckets in the pool-utilization timeline")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracetool [-top N] [-buckets N] FILE\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *top, *buckets); err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path string, top, buckets int) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spans, err := telemetry.ReadSpans(r)
	if err != nil {
		return err
	}
	return summarize(w, spans, top, buckets)
}

// cell is one reassembled span tree: a root and its phase children.
type cell struct {
	root   telemetry.Span
	phases []telemetry.Span
}

// summarize renders the full report. Output is deterministic for a
// given trace: ties are broken by span ID, phases by name.
func summarize(w io.Writer, spans []telemetry.Span, top, buckets int) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace is empty")
	}
	byID := map[string]*cell{}
	var cells []*cell
	for _, s := range spans {
		if s.Parent == "" {
			c := &cell{root: s}
			byID[s.ID] = c
			cells = append(cells, c)
		}
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		c, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s references unknown parent %s", s.ID, s.Parent)
		}
		c.phases = append(c.phases, s)
	}
	if len(cells) == 0 {
		return fmt.Errorf("trace has no root spans")
	}

	trace := cells[0].root.Trace
	outcomes := map[string]int{}
	start, end := cells[0].root.Start, cells[0].root.End
	for _, c := range cells {
		outcomes[c.root.Attrs["outcome"]]++
		if c.root.Start < start {
			start = c.root.Start
		}
		if c.root.End > end {
			end = c.root.End
		}
	}
	var split []string
	for _, o := range []string{"computed", "cached", "coalesced", "remote", "failed"} {
		if n := outcomes[o]; n > 0 {
			split = append(split, fmt.Sprintf("%d %s", n, o))
		}
	}
	fmt.Fprintf(w, "trace %s: %d cells (%s), wall %s\n",
		trace, len(cells), strings.Join(split, ", "), fmtDur(end-start))
	fleetSplit(w, cells)

	phaseBreakdown(w, cells)
	timeline(w, cells, start, end, buckets)
	criticalPath(w, cells, top)
	return nil
}

// fleetSplit attributes cells to the machines that executed them when
// the trace has any fabric-dispatched cells (root spans carry a
// "worker" attribute). Purely local traces print nothing, keeping
// pre-fabric output byte-identical.
func fleetSplit(w io.Writer, cells []*cell) {
	counts := map[string]int{}
	local := 0
	for _, c := range cells {
		if name := c.root.Attrs["worker"]; name != "" {
			counts[name]++
		} else {
			local++
		}
	}
	if len(counts) == 0 {
		return
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names)+1)
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s: %d", n, counts[n]))
	}
	if local > 0 {
		parts = append(parts, fmt.Sprintf("local: %d", local))
	}
	fmt.Fprintf(w, "fleet: %s\n", strings.Join(parts, ", "))
}

// phaseBreakdown aggregates every phase span by name.
func phaseBreakdown(w io.Writer, cells []*cell) {
	type agg struct {
		count      int
		total, max int64
	}
	phases := map[string]*agg{}
	for _, c := range cells {
		for _, p := range c.phases {
			a := phases[p.Name]
			if a == nil {
				a = &agg{}
				phases[p.Name] = a
			}
			d := p.End - p.Start
			a.count++
			a.total += d
			if d > a.max {
				a.max = d
			}
		}
	}
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	// Heaviest phase first; name breaks ties for determinism.
	sort.Slice(names, func(i, j int) bool {
		a, b := phases[names[i]], phases[names[j]]
		if a.total != b.total {
			return a.total > b.total
		}
		return names[i] < names[j]
	})

	fmt.Fprintf(w, "\nphase breakdown:\n")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  phase\tcount\ttotal\tmean\tmax\t\n")
	for _, n := range names {
		a := phases[n]
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\t\n",
			n, a.count, fmtDur(a.total), fmtDur(a.total/int64(a.count)), fmtDur(a.max))
	}
	tw.Flush()
}

// timeline renders average concurrent compute spans per bucket: the
// pool-utilization view. Wait and store phases are excluded — the
// question the timeline answers is "were the workers busy".
func timeline(w io.Writer, cells []*cell, start, end int64, buckets int) {
	if buckets <= 0 {
		buckets = 20
	}
	extent := end - start
	if extent <= 0 {
		return
	}
	width := (extent + int64(buckets) - 1) / int64(buckets)
	busy := make([]int64, buckets) // summed compute-span overlap per bucket
	for _, c := range cells {
		for _, p := range c.phases {
			if p.Name != "compute" {
				continue
			}
			for b := 0; b < buckets; b++ {
				lo, hi := start+int64(b)*width, start+int64(b+1)*width
				o := min64(p.End, hi) - max64(p.Start, lo)
				if o > 0 {
					busy[b] += o
				}
			}
		}
	}
	fmt.Fprintf(w, "\npool utilization (avg concurrent compute spans, %d buckets of %s):\n",
		buckets, fmtDur(width))
	for b := 0; b < buckets; b++ {
		avg := float64(busy[b]) / float64(width)
		bar := strings.Repeat("█", int(avg+0.5))
		fmt.Fprintf(w, "  %10s  %-8s %.2f\n", fmtDur(int64(b)*width), bar, avg)
	}
}

// criticalPath expands the slowest cells into their phases plus the
// untracked remainder.
func criticalPath(w io.Writer, cells []*cell, top int) {
	if top <= 0 {
		top = 3
	}
	sorted := append([]*cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		di, dj := sorted[i].root.End-sorted[i].root.Start, sorted[j].root.End-sorted[j].root.Start
		if di != dj {
			return di > dj
		}
		return sorted[i].root.ID < sorted[j].root.ID
	})
	if top > len(sorted) {
		top = len(sorted)
	}
	fmt.Fprintf(w, "\ncritical path (slowest %d of %d cells):\n", top, len(sorted))
	for _, c := range sorted[:top] {
		total := c.root.End - c.root.Start
		outcome := c.root.Attrs["outcome"]
		if worker := c.root.Attrs["worker"]; worker != "" {
			outcome += " @ " + worker
		}
		fmt.Fprintf(w, "  %s (%s) %s\n", c.root.Cell, outcome, fmtDur(total))
		phases := append([]telemetry.Span(nil), c.phases...)
		sort.Slice(phases, func(i, j int) bool {
			if phases[i].Start != phases[j].Start {
				return phases[i].Start < phases[j].Start
			}
			return phases[i].ID < phases[j].ID
		})
		var tracked int64
		for _, p := range phases {
			d := p.End - p.Start
			tracked += d
			fmt.Fprintf(w, "    %-13s %10s  %5.1f%%\n", p.Name, fmtDur(d), pct(d, total))
		}
		if rest := total - tracked; rest > 0 {
			fmt.Fprintf(w, "    %-13s %10s  %5.1f%%\n", "(untracked)", fmtDur(rest), pct(rest, total))
		}
	}
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// fmtDur renders nanoseconds rounded to the microsecond — traces
// measure wall clock, so sub-microsecond noise is not information.
func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
