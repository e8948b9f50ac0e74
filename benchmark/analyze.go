package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// summary is the span-derived part of a traced phase: per layer, the
// self time summed over every request.
type summary struct {
	requests         int
	rttNs            float64            // Σ client span
	selfNs           map[string]float64 // layer -> Σ self time
	serverByRoute    map[string]float64 // route -> Σ server self time
	routeCount       map[string]int
	materializeCalls float64
	attemptsPerReq   float64
}

func (s *summary) perReq(layer string) float64 {
	if s.requests == 0 {
		return 0
	}
	return s.selfNs[layer] / float64(s.requests) / 1e3
}

// spanLayer maps a span name to the layer its self time belongs to.
// Facade spans are leaves: nothing below the facade can be wrapped, so
// their whole duration is "facade" (reads, split further by replay),
// "materialize" (Materialize/NameOf) or "index" (writes).
func spanLayer(name string) string {
	prefix, op, _ := strings.Cut(name, ".")
	switch {
	case prefix == "client":
		return "client"
	case prefix == "server":
		return "server"
	case prefix == "fleet":
		return "fleet"
	case op == "materialize":
		return "materialize"
	case op == "add" || op == "update" || op == "delete":
		return "index"
	}
	return "facade"
}

// analyze assigns parents, computes self times and sums them per layer.
func analyze(spans []span) summary {
	assignParents(spans)
	self := selfTimes(spans)
	s := summary{selfNs: map[string]float64{}, serverByRoute: map[string]float64{}, routeCount: map[string]int{}}
	var fleetOps, facadeOps float64
	for i, sp := range spans {
		layer := spanLayer(sp.Name)
		s.selfNs[layer] += float64(self[i])
		switch layer {
		case "client":
			s.requests++
			s.rttNs += float64(sp.Busy)
			s.routeCount[strings.TrimPrefix(sp.Name, "client.")]++
		case "server":
			if sp.Parent >= 0 {
				s.serverByRoute[strings.TrimPrefix(spans[sp.Parent].Name, "client.")] += float64(self[i])
			}
		case "materialize":
			if strings.HasPrefix(sp.Name, "facade.") {
				s.materializeCalls += float64(sp.Calls)
			}
		case "fleet":
			if !strings.HasSuffix(sp.Name, ".materialize") {
				fleetOps++
			}
		case "facade", "index":
			facadeOps++
		}
	}
	if fleetOps > 0 {
		s.attemptsPerReq = facadeOps / fleetOps
	}
	return s
}

// attribution splits the facade's share of the round trip by replay and
// says how much of the round trip the named layers explain.
type attribution struct {
	layers        map[string]float64 // layer -> µs per request
	rttUs         float64
	unattributed  float64
	attributedPct float64

	// replay-priced per-layer metrics, µs unless named otherwise
	cacheRT, fanout, dbSelf, parse, eval, decodeNs float64
	byRoute                                        [numRoutes]float64
}

// attribute combines the span summary with the replayed prices. With the
// cache on, a read costs the hit path hitRatio of the time and a segment
// run plus a cache fill otherwise; with it off, the facade's own price is
// the fan-out around the slowest segment.
func attribute(s summary, priced []priced, cached bool, hitRatio float64) attribution {
	a := attribution{layers: map[string]float64{}}
	if s.requests == 0 {
		return a
	}
	n := float64(s.requests)
	a.rttUs = s.rttNs / n / 1e3
	for _, l := range []string{"client", "server", "materialize", "fleet", "index"} {
		a.layers[l] = s.perReq(l)
	}

	// Weighted means over the replayed sample, per read.
	var rescacheUs, shardUs, dbUs, xqUs, execUs float64
	var routeW [numRoutes]float64
	var postings, decode, queryW float64
	for _, p := range priced {
		a.cacheRT += p.weight * p.cacheRT
		postings += float64(p.postings)
		decode += p.decodeNs
		routeW[p.route] += p.weight
		a.byRoute[p.route] += p.weight * p.execSeg
		miss := 1.0
		if cached {
			miss = 1 - hitRatio
			rescacheUs += p.weight * (hitRatio*p.facade + miss*p.cacheRT)
		} else {
			fan := math.Max(0, p.facade-p.segMax)
			a.fanout += p.weight * fan
			shardUs += p.weight * fan
		}
		if p.route == rQuery {
			queryW += p.weight
			a.parse += p.weight * p.parse
			a.eval += p.weight * math.Max(0, p.segMax-p.parse)
			xqUs += p.weight * miss * p.segMax
			continue
		}
		a.dbSelf += p.weight * (p.segMax - p.execSeg)
		dbUs += p.weight * miss * (p.segMax - p.execSeg)
		execUs += p.weight * miss * p.execSeg
	}
	for r := range a.byRoute {
		if routeW[r] > 0 {
			a.byRoute[r] /= routeW[r]
		}
	}
	if queryW > 0 {
		a.parse /= queryW
		a.eval /= queryW
	}
	if w := 1 - queryW; w > 0 {
		a.dbSelf /= w
	}
	if postings > 0 {
		a.decodeNs = decode / postings
	}

	// Scale per-read prices to per-request means: writes are requests too.
	reads := 0
	for route, c := range s.routeCount {
		if route != "add" && route != "update" && route != "delete" {
			reads += c
		}
	}
	share := float64(reads) / n
	a.layers["rescache"] = rescacheUs * share
	a.layers["shard"] = shardUs * share
	a.layers["db"] = dbUs * share
	a.layers["xq"] = xqUs * share
	a.layers["exec"] = execUs * share
	predicted := a.layers["rescache"] + a.layers["shard"] + a.layers["db"] + a.layers["xq"] + a.layers["exec"]
	a.unattributed = math.Abs(s.perReq("facade") - predicted)
	if a.rttUs > 0 {
		a.attributedPct = 100 * (1 - a.unattributed/a.rttUs)
	}
	return a
}

// printLayers writes the per-layer table of a traced phase.
func printLayers(out io.Writer, w workload, s summary, a attribution, samples int) {
	fmt.Fprintf(out, "%s: traced %d requests, mean round trip %.1f µs; per request by layer:\n", w.name, samples, a.rttUs)
	names := make([]string, 0, len(a.layers))
	for l := range a.layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return a.layers[names[i]] > a.layers[names[j]] })
	for _, l := range names {
		fmt.Fprintf(out, "  %-12s %9.1f µs  %5.1f%%\n", l, a.layers[l], 100*a.layers[l]/a.rttUs)
	}
	fmt.Fprintf(out, "  %-12s %9.1f µs  %5.1f%%  (facade spans measured %.1f µs)\n",
		"unattributed", a.unattributed, 100*a.unattributed/a.rttUs, s.perReq("facade"))
	routes := make([]string, 0, len(s.serverByRoute))
	for r := range s.serverByRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		fmt.Fprintf(out, "  server.self_us[%s] = %.1f over %d requests\n", r, s.serverByRoute[r]/float64(s.routeCount[r])/1e3, s.routeCount[r])
	}
}
