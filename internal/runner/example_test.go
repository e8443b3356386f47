package runner_test

import (
	"fmt"
	"log"
	"os"

	"pacram/internal/runner"
)

// ExampleMatrix plans a small sweep: the matrix deduplicates shared
// cells (a baseline requested by every sweep point plans once), and
// Run executes the distinct jobs over a bounded pool, returning results
// in job order — bit-identical at any worker count.
func ExampleMatrix() {
	m := runner.NewMatrix[float64]()
	var base, nrh64 int // job indices: positions in Run's results
	for _, nrh := range []int{1024, 256, 64} {
		// Every sweep point also wants the unprotected baseline; only
		// the first request plans it.
		base = m.Add("cell/baseline", func(runner.Ctx) (float64, error) {
			return 1.0, nil
		})
		nrh := nrh
		i := m.Add(fmt.Sprintf("cell/nrh=%d", nrh), func(runner.Ctx) (float64, error) {
			return 1 - 1.0/float64(nrh), nil // stand-in for a simulation
		})
		if nrh == 64 {
			nrh64 = i
		}
	}
	fmt.Printf("planned %d distinct jobs\n", m.Len())

	results, err := runner.Run(runner.Options{Workers: 2, Seed: 42}, m.Jobs())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nrh=64 vs baseline: %.4f\n", results[nrh64]/results[base])
	// Output:
	// planned 4 distinct jobs
	// nrh=64 vs baseline: 0.9844
}

// ExampleDiskStore persists results on disk: a second Run with the
// same fingerprint, seed and keys loads every cell instead of
// recomputing. Any other Store backend (memory, remote, tiered) drops
// in the same way.
func ExampleDiskStore() {
	dir, err := os.MkdirTemp("", "runner-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := runner.NewDiskStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	jobs := []runner.Job[int]{
		{Key: "cell/a", Run: func(runner.Ctx) (int, error) { return 1, nil }},
		{Key: "cell/b", Run: func(runner.Ctx) (int, error) { return 2, nil }},
	}
	opt := runner.Options{Workers: 2, Seed: 7, Fingerprint: "example:v1", Store: store}
	if _, err := runner.Run(opt, jobs); err != nil { // cold: computes and stores
		log.Fatal(err)
	}
	if _, err := runner.Run(opt, jobs); err != nil { // warm: loads from disk
		log.Fatal(err)
	}
	st := store.Stats()
	fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// hits=2 misses=2
}
