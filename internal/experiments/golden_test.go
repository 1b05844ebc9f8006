package experiments

import (
	"os"
	"testing"
)

// TestBaselinesGolden pins the rendered baseline study on Kinematics,
// with the wall-clock column zeroed: every CO/SH/AE/MW cell, method
// name and note must match testdata/baselines.golden byte for byte.
func TestBaselinesGolden(t *testing.T) {
	cmp, err := RunBaselines(DefaultOptions())
	if err != nil {
		t.Fatalf("RunBaselines: %v", err)
	}
	for i := range cmp.Rows {
		cmp.Rows[i].Millis = 0
	}
	want, err := os.ReadFile("testdata/baselines.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Render(); got != string(want) {
		t.Errorf("baseline study changed.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
