package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"goingwild/internal/analysis"
	"goingwild/internal/core"
)

// TestSeriesGolden renders Figure 1 and Tables 1–2 from the order-16,
// 8-week epoch stream and compares them byte for byte with
// testdata/series_order16_weeks8.golden. The golden is the head of
// `wildreport -order 16 -weeks 8 -week 7` stdout, captured when the
// study still had a separate batch series path that agreed with the
// stream, so it pins the series engine to those bytes. It is an external
// test package because analysis imports core.
func TestSeriesGolden(t *testing.T) {
	cfg := core.DefaultConfig(16)
	cfg.Weeks = 8
	s, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	series, err := s.RunWeeklySeriesStreamContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	scale := analysis.Scale(s.World.ScaleFactor())
	var got bytes.Buffer
	fmt.Fprintln(&got, analysis.RenderFigure1(series, scale))
	fmt.Fprintln(&got, analysis.RenderTable1(series, scale, 10))
	fmt.Fprintln(&got, analysis.RenderTable2(series, scale))

	want, err := os.ReadFile("testdata/series_order16_weeks8.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("series rendering differs from the golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
