package repro

// The canonical renderer registry: every simulation-backed table/figure,
// in the fixed order the golden file (testdata/lab_golden.txt) commits
// to. The golden test, the cache resume acceptance tests, and the
// experiment farm all render through this registry, so "byte-identical
// figures" means the same bytes everywhere.

import (
	"fmt"
	"strings"
)

// Renderer is one named simulation-backed renderer.
type Renderer struct {
	Name string
	Fn   func(*Lab) (string, error)
}

// Renderers returns the canonical registry in golden-file order.
func Renderers() []Renderer {
	return []Renderer{
		{"table2", (*Lab).Table2},
		{"figure3", (*Lab).Figure3},
		{"figure6", (*Lab).Figure6},
		{"figure7", (*Lab).Figure7},
		{"figure9", (*Lab).Figure9},
		{"figure10", (*Lab).Figure10},
		{"figure11", (*Lab).Figure11},
		{"table4", (*Lab).Table4},
		{"table6", (*Lab).Table6},
		{"section5f", (*Lab).SensitivityVF},
		{"section5h", (*Lab).PowerReport},
	}
}

// RendererNames returns the registry's names in canonical order.
func RendererNames() []string {
	rs := Renderers()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}

// RendererByName resolves one registry entry.
func RendererByName(name string) (Renderer, bool) {
	for _, r := range Renderers() {
		if r.Name == name {
			return r, true
		}
	}
	return Renderer{}, false
}

// RenderSection renders one registry entry in the golden framing:
// "=== name ===\n<output>\n".
func RenderSection(l *Lab, r Renderer) (string, error) {
	out, err := r.Fn(l)
	if err != nil {
		return "", fmt.Errorf("%s: %w", r.Name, err)
	}
	return fmt.Sprintf("=== %s ===\n%s\n", r.Name, out), nil
}

// RenderAll renders the full registry on the lab, producing the exact
// byte stream committed as testdata/lab_golden.txt (for the golden lab
// configuration).
func RenderAll(l *Lab) (string, error) {
	var b strings.Builder
	for _, r := range Renderers() {
		sec, err := RenderSection(l, r)
		if err != nil {
			return "", err
		}
		b.WriteString(sec)
	}
	return b.String(), nil
}
