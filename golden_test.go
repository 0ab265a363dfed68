package repro

// Golden-output check: the byte-for-byte contract every optimization PR
// must preserve. TestLabGolden renders every simulation-backed renderer
// on the reduced grid of parallel_test.go and compares against a
// committed golden file, so a hot-path change that alters *any* simulated
// number — a reordered RNG draw, a different tie-break, a timing skew —
// fails the build instead of silently shifting figures.
//
// The golden file was generated before the allocation-free request
// pipeline landed (PR 3), so it also certifies old-vs-new equivalence of
// that optimization. Regenerate (only when an intentional behaviour
// change is reviewed and understood) with:
//
//	go test -run TestLabGolden -update-golden .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dram"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// renderGolden produces the concatenated renderer output for the reduced
// serial lab.
func renderGolden() (string, error) {
	return renderGoldenLab(labAt(1))
}

// renderGoldenLab renders every registry renderer (render.go — shared
// with the experiment farm and the cache resume acceptance tests,
// which must reproduce this byte stream) on the given lab.
func renderGoldenLab(l *Lab) (string, error) {
	return RenderAll(l)
}

func TestLabGolden(t *testing.T) {
	got, err := renderGolden()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lab_golden.txt", "TestLabGolden", got)
}

// TestActiveGolden pins the simulated numbers of cells with active
// mitigation: Figs. 6/7/9/10/11 and Tables IV/VI for a hot streaming
// workload (lbm) and a medium one (roms) at a calibrated 16ms window,
// where every scheme migrates, refreshes or throttles. The 500us
// lab_golden window is too short for any scheme to act. Regenerate (only
// for a reviewed behaviour change) with:
//
//	go test -run TestActiveGolden -update-golden .
func TestActiveGolden(t *testing.T) {
	l := NewLab(LabOptions{
		Window:    16 * dram.Millisecond,
		Workloads: []string{"lbm", "roms"},
		Parallel:  2,
	})
	var b strings.Builder
	for _, name := range []string{"figure6", "figure7", "figure9", "figure10", "figure11", "table4", "table6"} {
		r, ok := RendererByName(name)
		if !ok {
			t.Fatalf("no renderer %q", name)
		}
		sec, err := RenderSection(l, r)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(sec)
	}
	checkGolden(t, "active_golden.txt", "TestActiveGolden", b.String())
}

// checkGolden compares got against testdata/<file>, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, file, test, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run %s -update-golden .`): %v", test, err)
	}
	if got != string(want) {
		t.Errorf("renderer output diverged from %s.\n"+
			"If this change is intentional, regenerate with -update-golden and explain the delta in the PR.\n%s",
			path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line with context, keeping the
// failure message readable for multi-kilobyte tables.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d", len(wl), len(gl))
}
