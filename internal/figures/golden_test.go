package figures

import (
	"context"
	"path/filepath"
	"testing"

	"basevictim/internal/golden"
)

// TestGoldenFigureTables pins rendered experiment tables against
// committed output: fig12 spans organizations and sizes, fig13 the
// multi-program mixes.
func TestGoldenFigureTables(t *testing.T) {
	for _, id := range []string{"fig12", "fig13"} {
		t.Run(id, func(t *testing.T) {
			var run func(*Session, context.Context) (Table, error)
			for _, e := range Experiments() {
				if e.ID == id {
					run = e.Run
				}
			}
			if run == nil {
				t.Fatalf("experiment %s not registered", id)
			}
			tab, err := run(quickSession(), context.Background())
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", id+".txt"), []byte(tab.Format()))
		})
	}
}
