package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("id", "value")
	tb.AddRow(1, 3.14159)
	tb.AddRow("long-identifier", 2)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+sep+2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id") || !strings.Contains(lines[0], "value") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "3.14159") {
		t.Errorf("float row: %q", lines[2])
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestHeatGlyphRamp(t *testing.T) {
	cases := []struct {
		s    float64
		want byte
	}{
		{1.0, '.'}, {0.5, '.'}, {0.2, ':'}, {-0.1, '+'}, {-1.0, 'x'},
		{-3, 'X'}, {-100, '#'},
	}
	for _, c := range cases {
		if got := heatGlyph(c.s); got != c.want {
			t.Errorf("glyph(%g) = %c, want %c", c.s, got, c.want)
		}
	}
}

func TestHeatMapOrientation(t *testing.T) {
	// Row 0 (bottom) insensitive, row 1 (top) detected: the top line of
	// the rendering must carry the detection glyphs.
	s := [][]float64{{1, 1}, {-1, -1}}
	var b strings.Builder
	if err := HeatMap(&b, s, "p1", "p2"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	if !strings.Contains(lines[0], "xx") {
		t.Errorf("top line %q, want detection row first", lines[0])
	}
	if !strings.Contains(lines[1], "..") {
		t.Errorf("second line %q, want insensitive row", lines[1])
	}
	if !strings.Contains(b.String(), "x-axis: p1") {
		t.Error("legend missing")
	}
}

func TestGridCSV(t *testing.T) {
	var b strings.Builder
	err := GridCSV(&b, []float64{10, 20}, []float64{1, 2}, [][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if !strings.HasPrefix(s, "axis2\\axis1,10,20\n") {
		t.Errorf("header: %q", s)
	}
	if !strings.Contains(s, "1,0.1,0.2\n") || !strings.Contains(s, "2,0.3,0.4\n") {
		t.Errorf("rows: %q", s)
	}
}

func TestEngineering(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {20e-6, "20µ"}, {1.5e3, "1.5k"}, {2.5, "2.5"},
		{3e-3, "3m"}, {4e-9, "4n"}, {5e-12, "5p"}, {7e6, "7M"}, {8e9, "8G"},
	}
	for _, c := range cases {
		if got := Engineering(c.v); got != c.want {
			t.Errorf("Engineering(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}
