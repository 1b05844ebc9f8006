package experiments

import (
	"strings"
	"testing"
)

// TestShardStudySmall runs the shard-scaling sweep at reduced scale
// (full scale belongs to cmd/experiments and BenchmarkShard) and
// checks the quality contract: sharded summaries keep the solve near
// the single-shard and full-data objectives.
func TestShardStudySmall(t *testing.T) {
	savedSizes, savedShards := ShardStudySizes, ShardStudyShards
	// 8000 is the smallest size at which four contiguous shards still
	// compress: at 4000 each of S=4's strata holds about 167 rows, under
	// one 320-row coreset block, so the summary keeps every row.
	ShardStudySizes = []int{8000}
	ShardStudyShards = []int{1, 2, 4}
	defer func() { ShardStudySizes, ShardStudyShards = savedSizes, savedShards }()

	study, err := RunShardStudy(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 6 {
		t.Fatalf("%d points, want 6", len(study.Points))
	}
	for _, p := range study.Points {
		if p.SummaryRows <= 0 || p.SummaryRows >= p.N {
			t.Errorf("%s S=%d: summary %d rows of %d — no compression", p.Name, p.Shards, p.SummaryRows, p.N)
		}
		if p.Shards == 1 && p.RatioVsS1 != 1 {
			t.Errorf("%s: S=1 ratio-vs-S1 = %v, want 1", p.Name, p.RatioVsS1)
		}
		// Sharding the coreset must not degrade the solve materially:
		// the Adult acceptance bar stays the PR 3 one.
		if p.Name == "adult-6500" && p.RatioVsFull > 1.05 {
			t.Errorf("%s S=%d: merged-summary objective %.1f%% above full solve", p.Name, p.Shards, 100*(p.RatioVsFull-1))
		}
		if p.RatioVsFull > 1.5 || p.RatioVsFull <= 0 {
			t.Errorf("%s S=%d: ratio vs full %v way off", p.Name, p.Shards, p.RatioVsFull)
		}
	}
	out := study.Render()
	for _, want := range []string{"adult-6500", "synth-8000", "vs S=1", "vs full"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
