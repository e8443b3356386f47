package runner

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progress streams completion counts and an ETA to a writer, printing
// at most every interval so a fast matrix does not flood stderr.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int

	done   int
	cached int
	start  time.Time
	last   time.Time
}

const progressInterval = 500 * time.Millisecond

func newProgress(w io.Writer, label string, total int) *progress {
	if label == "" {
		label = "runner"
	}
	return &progress{w: w, label: label, total: total, start: time.Now()}
}

// step records one completed job (fromCache marks a cache hit) and
// prints a rate-limited progress line.
func (p *progress) step(fromCache bool) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if fromCache {
		p.cached++
	}
	now := time.Now()
	if now.Sub(p.last) < progressInterval && p.done != p.total {
		return
	}
	p.last = now
	elapsed := now.Sub(p.start)
	line := fmt.Sprintf("%s: %d/%d jobs", p.label, p.done, p.total)
	if p.cached > 0 {
		line += fmt.Sprintf(" (%d cached)", p.cached)
	}
	line += fmt.Sprintf(", elapsed %s", round(elapsed))
	if p.done < p.total && p.done > 0 {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		line += fmt.Sprintf(", eta %s", round(eta))
	}
	fmt.Fprintf(p.w, "\r%-70s", line)
}

// warn prints a warning on its own line between progress updates.
func (p *progress) warn(msg string) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "\n%s\n", msg)
}

// finish terminates the progress line after a successful run.
func (p *progress) finish() {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total == 0 {
		return
	}
	line := fmt.Sprintf("%s: %d jobs done", p.label, p.total)
	if p.cached > 0 {
		line += fmt.Sprintf(" (%d cached)", p.cached)
	}
	line += fmt.Sprintf(" in %s", round(time.Since(p.start)))
	fmt.Fprintf(p.w, "\r%-70s\n", line)
}

// round trims durations to a tenth of a second for display.
func round(d time.Duration) time.Duration {
	return d.Round(100 * time.Millisecond)
}
