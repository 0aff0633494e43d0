# Tier-1 verify: everything a change must keep green (see ROADMAP.md).
# For deeper concurrency soak-testing beyond tier-1, run `make stress`.
.PHONY: verify vet build test bench bench-verify stress fuzz lint lint-selftest serve-smoke crash-smoke

verify: vet build test bench-verify

vet:
	go vet ./...

# lint runs go vet plus sepvet, the project's static-analysis suite
# (internal/lint): five analyzers enforcing the budget, write-ahead
# ordering, snapshot-immutability, error-taxonomy, and leak-registration
# invariants over every package in the module, plus the driver's own
# directive checks (stale or unjustified ignores are findings too). The
# segment publish order is pinned by internal/segment's TestPublishOrder.
lint: vet
	go run ./cmd/sepvet

# lint-selftest proves the lint gate can actually fail: sepvet over the
# seeded-violation corpus must exit 1, and over the clean fixture must
# exit 0. A silently broken analyzer (or a walk that stopped finding
# packages) fails this target, not the violations it was meant to catch.
lint-selftest:
	@go run ./cmd/sepvet internal/lint/testdata/budgetcheck >/dev/null 2>/dev/null; \
	st=$$?; if [ $$st -ne 1 ]; then \
		echo "lint-selftest: sepvet exited $$st on the seeded corpus, want 1"; exit 1; fi
	@go run ./cmd/sepvet cmd/sepvet/testdata/clean >/dev/null; \
	st=$$?; if [ $$st -ne 0 ]; then \
		echo "lint-selftest: sepvet exited $$st on the clean fixture, want 0"; exit 1; fi
	@echo "lint-selftest: ok (seeded corpus exits 1, clean fixture exits 0)"

build:
	go build ./...

test:
	go test -race ./...

# bench runs sepmark, the repository's benchmark (see benchmark/README.md).
# The paper's §4 relation sizes are a test, not a benchmark: paper_test.go.
bench:
	bash benchmark/run.sh

# bench-verify vets and race-tests the benchmark, which is its own Go
# module and so is not covered by ./... from the root.
bench-verify:
	cd benchmark && go vet ./... && go test -race ./...

# serve-smoke boots a real sepdld process, answers a query and a batch
# over HTTP, SIGTERMs it mid-load, and asserts 503 + Retry-After
# shedding during the drain window plus a clean exit 0.
serve-smoke:
	go run ./cmd/servesmoke

# crash-smoke runs the kill-loop durability harness: a child process
# ingests facts into a write-ahead-logged engine, gets SIGKILLed at a
# different point each cycle, and the reopened database must contain
# every acknowledged fact, exactly a prefix of the ingest order, and
# answer queries identically to an in-RAM oracle under all six
# evaluation strategies. The second pass bounds the memtable so kills
# land around segment builds and recovery serves from the cold tier.
crash-smoke:
	go run ./cmd/crashsmoke -iterations 8 -facts 200 -v
	go run ./cmd/crashsmoke -iterations 8 -facts 200 -memtable-bytes 2048 -v

# stress repeats the concurrent-serving tests under the race detector,
# runs the forced-vs-background checkpoint race 20 times, repeats the
# relation snapshot tests (the index cache snapshots share with the live
# handle, racing readers and writers), the row-table model tests (the
# open-addressing table against a map model, and runs that wrap the table's
# end), the flat-storage tests (nullary rows, FromRows copying, allocation
# counts of inserts and scans), the window tests (read-only windows over a
# row range that outlive appends which reallocate the rows and grow the row
# table) and the relation fuzz seeds (which also check full and index
# scans, that snapshot row views stay frozen under live-handle writes, and
# windows and their index probes against the model's rows in position
# order) 20 times, a few seconds, the incremental-maintenance tests (view
# insertions and DRed deletions against recomputation, and the round
# structure of an insertion; Go randomises map iteration, so the round
# loop's sink order and DRed's marked order differ run to run) 20 times,
# and replays the parser, relation, segment scan, checkpoint marker and
# log record fuzz seed corpora. It
# is slower than tier-1 and meant for changes that touch the engine's
# locking, admission, checkpoints, view maintenance or repair, or relation
# or segment storage.
stress:
	go test -race -run Concurrent -count=5 ./...
	go test -race -count=20 -run TestCheckpointRacesBackgroundCheckpoint .
	go test -race -count=20 -run 'TestSnapshot|TestTable|TestZeroArity|TestFromRowsCopies|TestInsertAllocs|TestWindow|FuzzRelationOps' ./internal/rel/
	go test -race -count=20 -run 'MatchesRecompute|TestIncrementalStepsReadFrozenTotals|TestDelete' ./internal/eval/
	go test -run 'Fuzz' ./internal/parser/ ./internal/rel/ ./internal/segment/ ./internal/wal/

# fuzz runs each parser fuzzer, the relation-ops fuzzer (Insert, Delete,
# Snapshot, Index, thaw and Window against a map model, checking lookups,
# full and index scans, frozen snapshot rows, and windows' rows and
# probes), the segment scan fuzzer
# (prefix scans, Remaining and Contains over a built segment against a
# sorted model, under a disabled, a one-byte and a warm block cache), and
# the two byte-level decoder fuzzers (checkpoint markers; log records and
# their AddFact payloads), for a short budget of new inputs.
fuzz:
	go test -fuzz FuzzProgram -fuzztime 30s ./internal/parser/
	go test -fuzz FuzzQuery -fuzztime 15s ./internal/parser/
	go test -fuzz FuzzFacts -fuzztime 15s ./internal/parser/
	go test -fuzz FuzzRelationOps -fuzztime 30s ./internal/rel/
	go test -fuzz FuzzSegmentScan -fuzztime 30s ./internal/segment/
	go test -fuzz FuzzCheckpointMarker -fuzztime 15s ./internal/segment/
	go test -fuzz FuzzWALRecord -fuzztime 15s ./internal/wal/
