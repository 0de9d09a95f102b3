package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestEngineComparison(t *testing.T) {
	env := getEnv(t)
	rows := EngineComparison(env, 1)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Engine != "compiled" || rows[1].Engine != "compiled+parallel" {
		t.Fatalf("unexpected engine order: %+v", rows)
	}
	// The parallel kernels are bit-identical to serial, so quality must
	// not move at all between configurations. (The packed engine is held
	// to the map-vector oracle by cafc.TestEnginesAgree.)
	if math.Abs(rows[1].Entropy-rows[0].Entropy) > 1e-9 {
		t.Errorf("parallel entropy %.6f != serial %.6f", rows[1].Entropy, rows[0].Entropy)
	}
	if math.Abs(rows[1].FMeasure-rows[0].FMeasure) > 1e-9 {
		t.Errorf("parallel F %.6f != serial %.6f", rows[1].FMeasure, rows[0].FMeasure)
	}
	if rows[1].Workers < 1 {
		t.Errorf("parallel row reports %d workers", rows[1].Workers)
	}
	out := RenderEngineComparison(rows)
	if !strings.Contains(out, "compiled+parallel") || !strings.Contains(out, "speedup") {
		t.Errorf("render broken:\n%s", out)
	}
}
