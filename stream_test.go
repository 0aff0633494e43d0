package sepdl

// Streaming-executor equivalence: the streaming round pipeline must be
// byte-identical to the materializing ablation on every corpus entry
// under every strategy.

import "testing"

// TestStreamingMaterializedEquivalence runs the integration corpus under
// every served strategy twice — streaming (the default) and with
// withMaterializedRounds() restoring the pre-iterator pipeline — and
// requires byte-identical rendered results. Scope rejections must be
// identical too: streaming may not change which queries a strategy
// accepts.
func TestStreamingMaterializedEquivalence(t *testing.T) {
	for _, entry := range corpus {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			e := New()
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
				}
			}
		})
	}
}
