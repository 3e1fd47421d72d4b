package main

import "time"

// runTraced measures the per-layer metrics: the workload once untraced
// and once with the wrappers of trace.go around every layer boundary,
// then the layers below the outermost interface replayed on their own
// (the twins), each on half of an untraced trial's stream.
func runTraced(r *report) error {
	in, sp := r.in, r.sp
	compute := newRefCompute()
	ref, err := newRef(sp)
	if err != nil {
		return err
	}
	defer ref.close()

	measure := func(sys system, err error, ref refOp, tr *tracer, spanName string, then func(*phase) error) (*phase, error) {
		if err != nil {
			return nil, err
		}
		ph, err := drive(sys, in, ref, tr, spanName)
		if err == nil && then != nil {
			err = then(ph)
		}
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		return ph, err
	}

	sys, err := sp.build(in, &runEnv{workdir: r.o.workdir})
	untraced, err := measure(sys, err, ref, nil, "", nil)
	if err != nil {
		return err
	}

	tr := newTracer()
	var walBytes, snapshotMS, snapshotKB float64
	sys, err = sp.build(in, &runEnv{workdir: r.o.workdir, tr: tr, builds: 1})
	traced, err := measure(sys, err, ref, tr, "bench.request", func(ph *phase) error {
		r.verify(ph)
		ws, ok := sys.(*walSys)
		if !ok {
			return nil
		}
		// State size: one explicit snapshot once the stream has ended.
		st, err := ws.mon.StorageStats()
		if err != nil {
			return err
		}
		walBytes = float64(st.AppendedBytes)
		cal, _, _, err := calibratedSeconds(compute, bracket(compute, 50*time.Millisecond), ws.mon.Snapshot)
		if err != nil {
			return err
		}
		if st, err = ws.mon.StorageStats(); err != nil {
			return err
		}
		snapshotMS, snapshotKB = cal*1e3, float64(st.SnapshotBytes)/1024
		return nil
	})
	if err != nil {
		return err
	}

	tw, err := buildTwins(in, compute, tr)
	var bareComparisons uint64
	twin, err := measure(tw, err, compute, tr, "bench.twins", func(*phase) error {
		bareComparisons = tw.bareComparisons()
		return nil
	})
	if err != nil {
		return err
	}
	// The twins must be doing the traced run's work: same clusters, same
	// comparisons. (window_mix's traced run also updates and removes,
	// which the twins leave out.)
	if e := twin.after.Comparisons; e != bareComparisons || (!sp.mix && e != traced.after.Comparisons) {
		r.fail("twins diverge: engine %d, bare monitor %d, traced run %d comparisons", e, bareComparisons, traced.after.Comparisons)
	}
	if err := tr.writeSpans(r.o.spansPath(sp)); err != nil {
		return err
	}

	// Every layer is first a share, taken window by window against the
	// same objects, then microseconds of the traced run's calibrated cost.
	// Shares are taken within one replay wherever the layer can be seen
	// there, because two replays never meet the same machine: the twins
	// against each other, and the in-process workloads' AddBatch (which is
	// what the subscribed twin stands in for) against its own request.
	tl := traced.tl
	objs, perReq := float64(tl.objs), tl.objsPerRequest()
	streamObjs := float64(in.reqs * sp.batch)
	total := costUS(accSys, tl)
	of := func(t *timeline, acc int) float64 { return share(t, acc, tl, accSys) * total }
	accTwinMon := accTwinBare // the twin of the workload's own monitor
	if tw.pub != nil {
		accTwinMon = accTwinPub
	}
	pubUS := of(twin.tl, accTwinMon)
	if sp.echoTrips == 0 {
		pubUS = of(tl, accAddBatch)
	}
	engineUS := share(twin.tl, accTwinEngine, twin.tl, accTwinMon) * pubUS
	bareUS := share(twin.tl, accTwinBare, twin.tl, accTwinMon) * pubUS
	handleUS := of(tl, accHandleMax) // the slowest partition's handler is on the critical path
	appendUS := of(tl, accAppend)
	var codecUS, transportUS, routerUS float64
	switch {
	case sp.partitions > 0:
		codecUS, routerUS = handleUS-bareUS, total-handleUS
	case sp.echoTrips > 0:
		codecUS, transportUS = handleUS-appendUS-pubUS, total-handleUS
	}
	lat := calibratedMS(latencies, tl)
	r.refMedianUS = median(tl.refSlices())

	coreUS, windowUS := engineUS, 0.0
	if sp.window > 0 {
		coreUS, windowUS = 0, engineUS
	}
	r.set("cluster.build_s", tw.buildS, "s")
	r.set("core.process_us_per_obj", coreUS, "us")
	r.set("core.share", coreUS/total, "ratio")
	r.set("window.process_us_per_obj", windowUS, "us")
	r.set("window.share", windowUS/total, "ratio")
	r.set("order.rel_ns", relNS(in, compute), "ns")
	r.set("monitor.self_us_per_obj", bareUS-engineUS, "us")
	r.set("monitor.publish_us_per_obj", pubUS-bareUS, "us")
	r.set("monitor.share", (pubUS-engineUS)/total, "ratio")
	r.set("monitor.frontier_read_us", tl.perOpUS(accFrontier), "us")
	r.set("monitor.update_us", tl.perOpUS(accUpdate), "us")
	r.set("monitor.remove_object_us", tl.perOpUS(accRemove), "us")
	r.set("storage.append_us_per_obj", appendUS, "us")
	r.set("storage.append_calls_per_obj", float64(tl.count(accAppend))/objs, "count")
	r.set("storage.wal_bytes_per_obj", walBytes/streamObjs, "B")
	r.set("storage.share", appendUS/total, "ratio")
	r.set("storage.snapshot_ms", snapshotMS, "ms")
	r.set("storage.snapshot_kb", snapshotKB, "KiB")
	r.set("server.handle_us_per_req", tl.perOpUS(accHandle), "us")
	r.set("server.codec_us_per_obj", codecUS, "us")
	r.set("server.transport_us_per_req", transportUS*perReq, "us")
	r.set("server.share", (codecUS+transportUS)/total, "ratio")
	r.set("server.sse_lag_p50_ms", quantile(calibratedMS(lags, tl), 0.5), "ms")
	r.set("server.req_bytes_per_obj", float64(tr.reqBytes.Load())/streamObjs, "B")
	r.set("server.resp_bytes_per_obj", float64(tr.respBytes.Load())/streamObjs, "B")
	var skew, wire, hops float64
	if sp.partitions > 0 {
		skew = share(tl, accHandleMax, tl, accHandleMin)
		wire = float64(tr.reqBytes.Load()+tr.respBytes.Load()) / streamObjs
		hops = float64(tl.count(accHandle)) / float64(tl.requests)
	}
	r.set("partition.router_self_us_per_batch", routerUS*perReq, "us")
	r.set("partition.share", routerUS/total, "ratio")
	r.set("partition.fanout_skew", skew, "ratio")
	r.set("partition.requests_per_batch", hops, "count")
	r.set("partition.wire_bytes_per_obj", wire, "B")
	r.set("bench.raw_capacity_obj_s", objs/tl.sys.Seconds(), "obj/s")
	r.set("bench.raw_delivery_p50_ms", quantile(rawMS(tl.lat), 0.5), "ms")
	r.set("bench.delivery_p50_ms", quantile(lat, 0.5), "ms")
	r.set("bench.delivery_p99_ms", quantile(lat, 0.99), "ms")
	r.set("bench.samples", float64(len(lat)), "count")
	r.set("bench.windows", float64(len(tl.windows)), "count")
	r.set("bench.clock_spread", tl.clockSpread(), "ratio")
	r.set("bench.generator_share", float64(tl.wall-tl.sys-tl.refTime)/float64(tl.wall), "ratio")
	r.set("bench.trace_overhead", costUS(accSys, untraced.tl)/total, "ratio")
	r.note("bench.traced_capacity_obj_s", 1e6/total)
	if sp.echoTrips == 0 {
		r.note("bench.outside_addbatch_share", 1-share(tl, accAddBatch, tl, accSys))
	}
	return nil
}
