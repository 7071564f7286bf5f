package experiments

import "testing"

func TestPauseExperiment(t *testing.T) {
	res, err := Pause(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	fg, bg := res.Rows[0], res.Rows[1]
	if fg.Config != "foreground" || bg.Config != "background" {
		t.Fatalf("unexpected row order: %q, %q", fg.Config, bg.Config)
	}
	for _, r := range res.Rows {
		if r.Ops == 0 || r.MaxStall == 0 {
			t.Fatalf("%s: degenerate row %+v", r.Config, r)
		}
		if r.Passes == 0 {
			t.Fatalf("%s: no meshing passes ran", r.Config)
		}
	}
	// Background meshing must actually have recorded bounded pauses.
	if bg.PauseCount == 0 {
		t.Fatal("background mode recorded no pauses")
	}
}
