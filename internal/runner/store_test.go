package runner_test

import (
	"strings"
	"testing"

	"pacram/internal/runner"
	"pacram/internal/runner/storetest"
)

// TestStoreConformance runs every backend — and the tiered stack of
// them — through the shared conformance suite. The remote backend is a
// real RemoteStore speaking the wire protocol to a StoreHandler over
// HTTP, so the protocol itself is conformance-checked too.
func TestStoreConformance(t *testing.T) {
	backends := []struct {
		name string
		mk   storetest.Factory
	}{
		{"mem", func(t *testing.T) runner.Store {
			return runner.NewMemStore(0)
		}},
		{"disk", func(t *testing.T) runner.Store {
			s, err := runner.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"tiered", func(t *testing.T) runner.Store {
			disk, err := runner.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return runner.NewTiered(runner.NewMemStore(0), disk)
		}},
		{"remote", func(t *testing.T) runner.Store {
			disk, err := runner.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return runner.NewRemoteStore(storetest.ServeStore(t, disk))
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { storetest.Run(t, b.mk) })
	}
}

// TestMemStoreEviction pins the size bound, the eviction counter and
// LRU order for the in-memory tier.
func TestMemStoreEviction(t *testing.T) {
	storetest.RunEviction(t, func(t *testing.T, maxBytes int64) runner.Store {
		return runner.NewMemStore(maxBytes)
	})
}

// TestOpenStoreComposition checks the one store composition: a memory
// tier unless memBytes < 0, then disk when a directory is given, then
// remote when a URL is, fastest first; no tier at all means no store.
func TestOpenStoreComposition(t *testing.T) {
	origin := storetest.ServeStore(t, runner.NewMemStore(0))
	for _, tc := range []struct {
		name     string
		dir, url bool
		memBytes int64
		want     []string
	}{
		{"no knobs", false, false, 0, []string{"mem", "tiered"}},
		{"dir", true, false, 0, []string{"mem", "disk", "tiered"}},
		{"url", false, true, 0, []string{"mem", "remote", "tiered"}},
		{"dir and url", true, true, 0, []string{"mem", "disk", "remote", "tiered"}},
		{"dir, no mem", true, false, -1, []string{"disk", "tiered"}},
		{"dir and url, no mem", true, true, -1, []string{"disk", "remote", "tiered"}},
	} {
		dir, url := "", ""
		if tc.dir {
			dir = t.TempDir()
		}
		if tc.url {
			url = origin
		}
		s, err := runner.OpenStore(dir, url, tc.memBytes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, ts := range s.PerTier() {
			got = append(got, ts.Name)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: tiers %v, want %v", tc.name, got, tc.want)
		}
	}
	if s, err := runner.OpenStore("", "", -1); err != nil || s != nil {
		t.Fatalf("OpenStore with no tier = %v, %v; want nil, nil", s, err)
	}
}

// TestTieredPromotionAndWriteBack checks the combinator's two data
// movements: Put reaches every tier, and a Get that misses the fast
// tier but hits a slower one copies the entry forward.
func TestTieredPromotionAndWriteBack(t *testing.T) {
	fast, slow := runner.NewMemStore(0), runner.NewMemStore(0)
	tiered := runner.NewTiered(fast, slow)

	if err := tiered.Put("aa", []byte(`{"key":"k","fingerprint":"f","result":1}`)); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]runner.Store{"fast": fast, "slow": slow} {
		if _, ok, _ := s.Get("aa"); !ok {
			t.Fatalf("write-back did not reach the %s tier", name)
		}
	}

	// Seed only the slow tier, then read through the stack.
	if err := slow.Put("bb", []byte(`{"key":"k2","fingerprint":"f","result":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tiered.Get("bb"); !ok || err != nil {
		t.Fatalf("tiered Get = ok=%v err=%v, want a hit from the slow tier", ok, err)
	}
	if _, ok, _ := fast.Get("bb"); !ok {
		t.Fatal("hit was not promoted into the fast tier")
	}
	if st := tiered.Stats(); st.Promotions != 1 {
		t.Fatalf("Stats().Promotions = %d, want 1", st.Promotions)
	}
}
