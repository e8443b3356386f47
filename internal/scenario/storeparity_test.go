package scenario

import (
	"strings"
	"testing"

	"pacram/internal/runner"
	"pacram/internal/runner/storetest"
)

// TestCatalogStoreBackendParity is the byte-identity acceptance check
// for the pluggable result store: every built-in scenario produces
// identical table and CSV bytes with no store, and with each backend —
// in-memory, disk, a tiered mem+disk stack, and a remote store backed
// by a live StoreHandler over HTTP — cold (computing and storing every
// cell) and warm (serving every cell from the store), twice. The memory
// tier keeps each decoded result and hands the same value to every
// later hit, so the second warm pass fails if table assembly mutates a
// result it was served.
func TestCatalogStoreBackendParity(t *testing.T) {
	specs, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if testing.Short() && sp.Name != "refresh-stress" && sp.Name != "multi-tenant" {
			continue
		}
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			// Reduced scale, like the engine-parity suite: store
			// transparency is structural, so a shorter run loses no
			// coverage, only wall clock.
			sp.Sim.Instructions = min(sp.Sim.Instructions, 2_000)
			sp.Sim.Warmup = min(sp.Sim.Warmup, 200)

			baselineTbl, err := Run(sp, RunOptions{Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			wantTable := renderTable(t, baselineTbl)
			var wantCSV strings.Builder
			if err := baselineTbl.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}

			backends := []struct {
				name string
				mk   func(t *testing.T) runner.Store
			}{
				{"mem", func(t *testing.T) runner.Store { return runner.NewMemStore(0) }},
				{"disk", func(t *testing.T) runner.Store {
					s, err := runner.NewDiskStore(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					return s
				}},
				{"tiered", func(t *testing.T) runner.Store {
					s, err := runner.NewDiskStore(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					return runner.NewTiered(runner.NewMemStore(0), s)
				}},
				{"remote", func(t *testing.T) runner.Store {
					return runner.NewRemoteStore(storetest.ServeStore(t, runner.NewMemStore(0)))
				}},
			}
			for _, b := range backends {
				t.Run(b.name, func(t *testing.T) {
					store := b.mk(t)
					onWarning := func(w runner.Warning) {
						t.Errorf("store degradation during parity run: %s", w.Message())
					}
					for _, phase := range []string{"cold", "warm", "second warm"} {
						tbl, err := Run(sp, RunOptions{Parallel: 3, Store: store, OnWarning: onWarning})
						if err != nil {
							t.Fatalf("%s run: %v", phase, err)
						}
						if got := renderTable(t, tbl); got != wantTable {
							t.Fatalf("%s run table differs from storeless baseline:\n--- %s ---\n%s--- baseline ---\n%s",
								phase, b.name, got, wantTable)
						}
						var csv strings.Builder
						if err := tbl.WriteCSV(&csv); err != nil {
							t.Fatal(err)
						}
						if csv.String() != wantCSV.String() {
							t.Fatalf("%s run CSV differs from storeless baseline", phase)
						}
					}
					// The warm run must actually have been warm: every
					// distinct cell was served from the store.
					st := store.Stats()
					if st.Hits == 0 {
						t.Fatalf("warm run recorded no store hits (stats: %+v)", st)
					}
				})
			}
		})
	}
}
