package sepdl

// Streaming-executor equivalence: the streaming round pipeline must be
// byte-identical to the materializing ablation on every corpus entry
// under every strategy, down to the round structure.

import (
	"maps"
	"testing"
)

// TestStreamingMaterializedEquivalence runs the integration corpus under
// every served strategy twice — streaming (the default) and with
// withMaterializedRounds() restoring the pre-iterator pipeline — and
// requires byte-identical rendered results and the same round structure:
// Stats.Iterations, Inserted and RelationSizes. A streaming round inserts
// into the totals as it goes, so a rule body that read the growing totals
// instead of the ones frozen at the round start would still find every
// answer, but in fewer rounds. The closure cache is off, so the second
// query of each pair evaluates too. Scope rejections must be identical:
// streaming may not change which queries a strategy accepts.
func TestStreamingMaterializedEquivalence(t *testing.T) {
	for _, entry := range corpus {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			e := New(WithClosureCache(-1))
			if err := e.LoadProgram(entry.program); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadFacts(entry.facts); err != nil {
				t.Fatal(err)
			}
			for _, query := range entry.queries {
				for _, s := range servedStrategies {
					stream, serr := e.Query(query, WithStrategy(s))
					mat, merr := e.Query(query, WithStrategy(s), withMaterializedRounds())
					if (serr == nil) != (merr == nil) {
						t.Errorf("%s [%s]: streaming err %v, materialized err %v", query, s, serr, merr)
						continue
					}
					if serr != nil {
						continue // both rejected: scope error, fine
					}
					if stream.String() != mat.String() {
						t.Errorf("%s [%s]: streaming %s, materialized %s", query, s, stream, mat)
					}
					ss, ms := stream.Stats, mat.Stats
					if ss.Iterations != ms.Iterations || ss.Inserted != ms.Inserted || !maps.Equal(ss.RelationSizes, ms.RelationSizes) {
						t.Errorf("%s [%s]: streaming rounds=%d inserted=%d sizes=%v, materialized rounds=%d inserted=%d sizes=%v",
							query, s, ss.Iterations, ss.Inserted, ss.RelationSizes, ms.Iterations, ms.Inserted, ms.RelationSizes)
					}
				}
			}
		})
	}
}
