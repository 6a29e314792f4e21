package main

import "fmt"

// Span names of the layer wrappers and of the observability stages
// read back from Session.Run. A per-layer "_us" metric is the named
// span's mean self time per traced session.
const (
	spCompile      = "cmf.compile"
	spFromListing  = "pifgen.from_listing"
	spFromTopology = "pifgen.from_topology"
	spGreedy       = "place.greedy"
	spNewSession   = "nvmap.new_session"
	spPIFImport    = "paradyn.pif_import"
	spMonitor      = "nvmap.enable_sas_monitor"
	spAsk          = "paradyn.ask"
	spEnable       = "paradyn.enable_metric"
	spRun          = "nvmap.run"
	spSampleAll    = "paradyn.sample_all"
	spAnswer       = "sas.answer"
	spValue        = "paradyn.metric_value"
	spActivate     = "sas.activate"
	spMatch        = "sas.match"
	spDaemonSend   = "daemon.send"
	spDrain        = "daemon.drain"
	spRegion       = "machine.region"
	spCollective   = "machine.collective"
	spCompute      = "cmrts.compute"
	spToolSample   = "paradyn.sample"
	spCheckpoint   = "checkpoint.save"
	spRestore      = "recovery.restore"
	spLag          = "loadgen.lag"
	spAdmitWait    = "serve.admit_wait"
	spServeRun     = "serve.run"
)

// layerMetrics reports every per-layer metric from the traced window's
// spans (tr, ph) and the untraced baseline window (base). Metrics a
// workload does not reach read 0.
func layerMetrics(rep *report, tr *tracer, ph, base *phase) {
	self := tr.selfTimes()
	n := float64(max(tr.sessions(), 1))
	selfUS := func(name string) float64 {
		if ls := self[name]; ls != nil {
			return us(ls.Self) / n
		}
		return 0
	}
	calls := func(name string) float64 {
		if ls := self[name]; ls != nil {
			return float64(ls.Calls)
		}
		return 0
	}
	per := func(name string) float64 { return ph.counts[name] / float64(max(ph.sessions, 1)) }
	share := func(a, b string) float64 {
		if ph.counts[b] == 0 {
			return 0
		}
		return ph.counts[a] / ph.counts[b]
	}
	note := fmt.Sprintf("(n=%d traced sessions)", tr.sessions())

	rep.set("nvmap.new_session_us", selfUS(spNewSession), "us", note)
	rep.set("nvmap.run_us", selfUS(spRun), "us", note)
	rep.set("nvmap.source_repeat_share", share("nvmap.source_repeats", "nvmap.sessions"), "ratio", "(sessions whose source an earlier one used)")

	rep.set("cmf.compile_us", selfUS(spCompile), "us", note)
	rep.set("cmf.compiles", calls(spCompile), "count", "(in the traced window)")
	rep.set("pifgen.from_listing_us", selfUS(spFromListing), "us", note)
	rep.set("pifgen.records", per("pifgen.records"), "count", "(per session)")
	rep.set("pifgen.from_topology_us", selfUS(spFromTopology), "us", note)

	rep.set("paradyn.pif_import_us", selfUS(spPIFImport), "us", note)
	rep.set("paradyn.ask_us", selfUS(spAsk), "us", note)
	rep.set("paradyn.enable_metric_us", selfUS(spEnable), "us", note)
	rep.set("paradyn.metric_instances", per("paradyn.metric_instances"), "count", "(per session)")
	rep.set("paradyn.sample_all_us", selfUS(spSampleAll), "us", note)
	rep.set("paradyn.sample_rounds", per("paradyn.sample_rounds"), "count", "(per session)")

	rep.set("dyninst.inserted", per("dyninst.inserted"), "count", "(per session)")
	rep.set("dyninst.fires", per("dyninst.fires"), "count", "(per session)")
	rep.set("dyninst.fire_ratio", ph.counts["dyninst.fires"]/max(ph.counts["dyninst.fires"]+ph.counts["dyninst.suppressed"], 1), "ratio", "(fires / (fires + suppressed))")
	rep.set("dyninst.perturbation_ns", per("dyninst.perturbation_ns"), "ns", "(virtual, per session)")

	rep.set("machine.vtime_ns", per("machine.vtime_ns"), "ns", "(virtual, per session)")
	rep.set("machine.parallel_regions", per("machine.parallel_regions"), "count", "(per session)")
	rep.set("machine.region_us", selfUS(spRegion), "us", note)
	rep.set("cmrts.compute_us", selfUS(spCompute), "us", note)
	rep.set("machine.net_congestion_bytes", per("machine.net_congestion_bytes"), "bytes", "(heaviest link, per session)")
	rep.set("place.greedy_us", selfUS(spGreedy), "us", note)

	rep.set("daemon.sent", per("daemon.sent"), "count", "(per session)")
	rep.set("daemon.batch_share", share("daemon.batches", "daemon.sent"), "ratio", "(SendBatch calls per message sent)")
	rep.set("daemon.dropped", per("daemon.dropped"), "count", "(per session)")
	rep.set("daemon.retried", per("daemon.retried"), "count", "(per session)")
	rep.set("daemon.drain_us", selfUS(spDrain), "us", note)

	rep.set("sas.notifications", per("sas.notifications"), "count", "(per session)")
	rep.set("sas.stored_ratio", share("sas.stored", "sas.notifications"), "ratio", "(stored / notifications)")
	rep.set("sas.evaluations", per("sas.evaluations"), "count", "(per session)")
	rep.set("sas.activate_us", selfUS(spActivate), "us", note)
	rep.set("sas.match_us", selfUS(spMatch), "us", note)
	rep.set("sas.answer_us", selfUS(spAnswer), "us", note)

	nd := float64(max(len(ph.diag), 1))
	rep.set("diagnose.search_ms", ph.counts["diagnose.search_ms"]/nd, "ms", fmt.Sprintf("(server wall, n=%d diagnoses)", len(ph.diag)))
	rep.set("diagnose.probes_run", ph.counts["diagnose.probes_run"]/nd, "count", "(per diagnosis)")
	rep.set("diagnose.pruned", ph.counts["diagnose.pruned"]/nd, "count", "(per diagnosis)")
	rep.set("diagnose.confirm_ratio", share("diagnose.confirmed", "diagnose.probes_run"), "ratio", "(confirmed / probes run)")
	rep.set("diagnose.search_vtime_ns", ph.counts["diagnose.search_vtime_ns"]/nd, "ns", "(virtual, per diagnosis)")
	rep.set("diagnose_p50_ms", quantile(ph.diag, 0.5), "ms", fmt.Sprintf("(n=%d)", len(ph.diag)))
	rep.set("diagnose_p90_ms", quantile(ph.diag, 0.9), "ms", fmt.Sprintf("(n=%d)", len(ph.diag)))

	nr := float64(max(ph.attempted, 1))
	rep.set("serve.admit_wait_ms", ph.counts["serve.admit_wait_ms"]/nr, "ms", "(sent → admitted, per request)")
	rep.set("serve.queue_wait_ms", ph.counts["serve.queue_wait_ms"]/nr, "ms", "(admitted event's queue time, per request)")
	rep.set("serve.run_ms", ph.counts["serve.run_ms"]/nr, "ms", "(admitted → done, per request)")
	rep.set("serve.first_answer_ms", ph.counts["serve.first_answer_ms"]/nr, "ms", "(sent → first answer or finding, per request)")
	rep.set("serve.shed_share", ph.counts["serve.shed"]/nr, "ratio", "(admitted below full fidelity)")
	rep.set("serve.rejected", ph.counts["serve.rejected"], "count", "(429/503 in the traced window)")
	rep.set("checkpoint.saves", per("checkpoint.saves"), "count", "(per session, from report events)")
	rep.set("recovery.restores", per("recovery.restores"), "count", "(per session, from report events)")
	rep.set("fault.dropped_messages", per("fault.dropped_messages"), "count", "(per session, from report events)")
	rep.set("loadgen.offered_per_s", ph.layers["loadgen.offered_per_s"], "1/s", "(scheduled arrivals / schedule span)")
	rep.set("loadgen.lag_p99_ms", ph.layers["loadgen.lag_p99_ms"], "ms", "(send time − due time)")

	untraced := fmt.Sprintf("(untraced window, n=%d)", len(base.lat))
	rep.set("sessions_per_s", float64(len(base.lat))/base.elapsed.Seconds(), "1/s", untraced)
	rep.set("session_p50_ms", quantile(base.lat, 0.5), "ms", untraced)
	rep.set("session_p90_ms", quantile(base.lat, 0.9), "ms", untraced)
	rep.set("session_p99_ms", quantile(base.lat, 0.99), "ms", untraced)
	tracedP50 := quantile(ph.lat, 0.5)
	untracedP50 := quantile(base.lat, 0.5)
	rep.set("trace.overhead_ms", tracedP50-untracedP50, "ms",
		fmt.Sprintf("(traced p50 %.4f − untraced p50 %.4f)", tracedP50, untracedP50))
	rep.set("trace.self_coverage", tr.coverage(), "ratio", "(layer self time / session wall)")
	rep.set("slo_miss_ratio", ratio(ph.sloMiss+base.sloMiss, ph.attempted+base.attempted), "ratio", "(failed, refused or over the limit)")
	rep.set("failed_ratio", ratio(ph.failed+base.failed, ph.attempted+base.attempted), "ratio", "(errors plus wrong answers)")
}

// stageSpan maps an observability stage name (obs.Stage.String) to the
// layer span it is reported under; stages not listed fold into the
// machine's collective operations.
var stageSpan = map[string]string{
	"compute":        spCompute,
	"execute":        spCompute,
	"region":         spRegion,
	"daemon_send":    spDaemonSend,
	"daemon_drain":   spDrain,
	"sas_activate":   spActivate,
	"sas_deactivate": spActivate,
	"sas_match":      spMatch,
	"sample_read":    spToolSample,
	"sample_commit":  spToolSample,
	"checkpoint":     spCheckpoint,
	"restore":        spRestore,
	"pif_import":     spPIFImport,
}

func stageLayer(stage string) string {
	if s, ok := stageSpan[stage]; ok {
		return s
	}
	return spCollective
}
