package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// handleMetrics renders the engine's aggregate counters and the server's
// own HTTP accounting in Prometheus text exposition format. Counter names
// are part of the server's public surface (dashboards alert on them):
//
//	sepdl_queries_total             evaluations admitted past admission control
//	sepdl_query_errors_total        admitted evaluations that returned an error
//	sepdl_overloads_total           admission rejections (drain included)
//	sepdl_drain_rejections_total    …the drain-mode subset
//	sepdl_deadline_aborts_total     wall-clock cutoffs (deadline / cancel)
//	sepdl_budget_aborts_total       tuple/round/byte-cap cutoffs
//	sepdl_fallbacks_total           queries answered by the semi-naive fallback
//	sepdl_plan_cache_hits_total     compiled-plan cache hits
//	sepdl_plan_cache_misses_total   …and misses
//	sepdl_closure_cache_hits_total  class-closure cache hits
//	sepdl_closure_cache_misses_total …and fills
//	sepdl_batches_total             batched evaluations
//	sepdl_batch_queries_total       total batch elements
//	sepdl_inflight_queries          gauge: evaluations running now
//	sepdl_facts                     gauge: base facts loaded
//	sepdl_wal_*                     durable-store counters: appends, fsyncs,
//	                                checkpoints, boot-time recovery (all zero
//	                                with sepdl_wal_durable 0)
//	sepdl_store_*                   segment-tier counters: live segment files
//	                                (gauge), tuples in the newest segment
//	                                (gauge), builds, block-cache hits/misses,
//	                                bytes read from segments (all zero without
//	                                segment-backed checkpoints)
//	sepdld_http_requests_total{endpoint,code}  responses sent
//	sepdld_quota_rejections_total   requests shed by per-client quotas
//	sepdld_quota_clients            gauge: live quota buckets
//	sepdld_draining                 gauge: 1 once StartDrain was called
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("sepdl_queries_total", "Evaluations admitted past admission control.", st.Queries)
	counter("sepdl_query_errors_total", "Admitted evaluations that returned an error.", st.QueryErrors)
	counter("sepdl_overloads_total", "Admission rejections, drain rejections included.", st.Overloads)
	counter("sepdl_drain_rejections_total", "Admission rejections while draining.", st.DrainRejections)
	counter("sepdl_deadline_aborts_total", "Evaluations cut off by deadline or cancellation.", st.DeadlineAborts)
	counter("sepdl_budget_aborts_total", "Evaluations cut off by a tuple/round/byte cap.", st.BudgetAborts)
	counter("sepdl_fallbacks_total", "Evaluations answered by the semi-naive fallback.", st.Fallbacks)
	counter("sepdl_plan_cache_hits_total", "Compiled-plan cache hits.", st.PlanCacheHits)
	counter("sepdl_plan_cache_misses_total", "Compiled-plan cache misses.", st.PlanCacheMisses)
	counter("sepdl_closure_cache_hits_total", "Class-closure cache hits.", st.ClosureCacheHits)
	counter("sepdl_closure_cache_misses_total", "Class-closure cache fills.", st.ClosureCacheMisses)
	counter("sepdl_batches_total", "Batched evaluations.", st.Batches)
	counter("sepdl_batch_queries_total", "Total elements across batched evaluations.", st.BatchQueries)
	gauge("sepdl_inflight_queries", "Admitted evaluations currently running.", st.InFlight)
	gauge("sepdl_facts", "Base facts loaded.", int64(s.eng.NumFacts()))

	wal := st.WAL
	durable := int64(0)
	if wal.Durable {
		durable = 1
	}
	gauge("sepdl_wal_durable", "1 when writes go through the write-ahead log.", durable)
	counter("sepdl_wal_appends_total", "Acknowledged (durable) log records.", wal.Appends)
	counter("sepdl_wal_append_errors_total", "Appends that failed and were rolled back.", wal.AppendErrors)
	counter("sepdl_wal_syncs_total", "Fsyncs issued for appended data.", wal.Syncs)
	counter("sepdl_wal_sync_errors_total", "Fsyncs that failed.", wal.SyncErrors)
	counter("sepdl_wal_bytes_appended_total", "Encoded bytes of acknowledged records.", wal.BytesAppended)
	counter("sepdl_wal_checkpoints_total", "Checkpoints durably installed.", wal.Checkpoints)
	counter("sepdl_wal_checkpoint_errors_total", "Checkpoint attempts abandoned on error.", wal.CheckpointErrors)
	gauge("sepdl_wal_segments", "Live log segments.", int64(wal.Segments))
	counter("sepdl_wal_recovered_records_total", "Log records replayed by boot-time recovery.", wal.RecoveredRecords)
	counter("sepdl_wal_recovered_bytes_total", "Log bytes replayed by boot-time recovery.", wal.RecoveredBytes)
	counter("sepdl_wal_recovery_truncations_total", "Torn log tails cut off during recovery.", wal.RecoveryTruncations)
	gauge("sepdl_wal_recovery_nanos", "Duration of boot-time recovery.", int64(wal.RecoveryNanos))

	seg := wal.Segment
	gauge("sepdl_store_segment_files", "Live segment files in the data directory.", int64(seg.SegmentFiles))
	gauge("sepdl_store_segment_tuples", "Tuples in the newest installed segment.", int64(seg.SegmentTuples))
	counter("sepdl_store_segment_builds_total", "Segment files durably written.", seg.SegmentBuilds)
	counter("sepdl_store_segment_build_errors_total", "Segment builds abandoned on error.", seg.SegmentBuildErrors)
	counter("sepdl_store_block_cache_hits_total", "Decoded-block cache hits.", seg.BlockCacheHits)
	counter("sepdl_store_block_cache_misses_total", "Decoded-block cache misses.", seg.BlockCacheMisses)
	counter("sepdl_store_segment_read_bytes_total", "Bytes fetched from segment files on cache misses.", seg.SegmentBytesRead)

	s.mu.Lock()
	quotaRejects := s.quotaRejects
	keys := make([]string, 0, len(s.httpCodes))
	for k := range s.httpCodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "# HELP sepdld_http_requests_total Responses sent, by endpoint and status code.\n# TYPE sepdld_http_requests_total counter\n")
	for _, k := range keys {
		ep, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "sepdld_http_requests_total{endpoint=%q,code=%q} %d\n", ep, code, s.httpCodes[k])
	}
	s.mu.Unlock()

	counter("sepdld_quota_rejections_total", "Requests shed by per-client quotas.", quotaRejects)
	gauge("sepdld_quota_clients", "Live per-client quota buckets.", int64(s.quotas.len()))
	draining := int64(0)
	if s.Draining() {
		draining = 1
	}
	gauge("sepdld_draining", "1 once the server began draining.", draining)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
