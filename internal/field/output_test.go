package field

import (
	"strings"
	"testing"

	"ccahydro/internal/amr"
)

func TestCompositeSampleUsesFinestData(t *testing.T) {
	h := refinedHierarchy() // 32x32 with a fine level over (8..23)^2 refined
	d := New("u", h, 1, 2, nil)
	// Coarse = 1 everywhere, fine = 5 everywhere: composite must show 5
	// where fine data exists, 1 elsewhere.
	for _, pd := range d.LocalPatches(0) {
		fillAll(pd, 1)
	}
	for _, pd := range d.LocalPatches(1) {
		fillAll(pd, 5)
	}
	data, domain := d.CompositeSample(0)
	nx, _ := domain.Size()
	at := func(i, j int) float64 { return data[j*nx+i] }
	fineFoot := h.Level(1).Patches[0].Box.Coarsen(2)
	if got := at(fineFoot.Lo[0]+1, fineFoot.Lo[1]+1); got != 5 {
		t.Errorf("fine-covered cell = %v, want 5", got)
	}
	if got := at(0, 0); got != 1 {
		t.Errorf("coarse-only cell = %v, want 1", got)
	}
}

func TestCompositeSampleAverages(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	// Fine cells hold their i-index; the coarse composite holds the
	// 2x2 average = 2*ci + 0.5.
	for _, pd := range d.LocalPatches(1) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				pd.Set(0, i, j, float64(i))
			}
		}
	}
	data, domain := d.CompositeSample(0)
	nx, _ := domain.Size()
	foot := h.Level(1).Patches[0].Box.Coarsen(2)
	ci, cj := foot.Lo[0]+2, foot.Lo[1]+2
	want := float64(2*ci) + 0.5
	if got := data[cj*nx+ci]; got != want {
		t.Errorf("composite = %v, want %v", got, want)
	}
}

func TestWriteCSVShape(t *testing.T) {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 3, 2), 2, 1, 1)
	d := New("u", h, 1, 1, nil)
	fillAll(d.LocalPatches(0)[0], 2.5)
	var b strings.Builder
	if err := d.WriteCSV(&b, 0, "test"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "#") {
		t.Error("missing header")
	}
	if lines[1] != "2.5,2.5,2.5,2.5" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWritePGMShape(t *testing.T) {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 7, 7), 2, 1, 1)
	d := New("u", h, 1, 1, nil)
	pd := d.LocalPatches(0)[0]
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			pd.Set(0, i, j, float64(i))
		}
	}
	var sb strings.Builder
	if err := d.WritePGM(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "P2\n8 8\n255\n") {
		t.Errorf("header = %q", out[:20])
	}
	// Max value 255 (at i=7), min 0 (at i=0).
	if !strings.Contains(out, "255") {
		t.Error("no max gray value")
	}
}

func TestPatchMapRendersLevels(t *testing.T) {
	h := refinedHierarchy()
	m := PatchMap(h, 0)
	if !strings.Contains(m, "1") || !strings.Contains(m, "0") {
		t.Errorf("patch map missing levels:\n%s", m)
	}
	rows := strings.Split(strings.TrimSpace(m), "\n")
	if len(rows) != 32 || len(rows[0]) != 32 {
		t.Errorf("map shape = %dx%d", len(rows), len(rows[0]))
	}
	// Downsampled map respects maxWidth.
	small := PatchMap(h, 16)
	srows := strings.Split(strings.TrimSpace(small), "\n")
	if len(srows[0]) > 16 {
		t.Errorf("downsampled width = %d", len(srows[0]))
	}
}
