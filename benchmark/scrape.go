package main

import (
	"bytes"

	"repro/internal/obs"
)

func scrapeRegistry(reg *obs.Registry) (map[string]*obs.Family, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParseExposition(&buf)
}

// sampleSum adds up the samples of one family with the given sample name
// whose labels include every pair in match.
func sampleSum(fams map[string]*obs.Family, family, sample string, match map[string]string) float64 {
	f, ok := fams[family]
	if !ok {
		return 0
	}
	sum := 0.0
next:
	//lint:ignore-cqla obsguard a parsed Family is exposition data, not a nil-able handle, and the lookup above found it
	for _, s := range f.Samples {
		if s.Name != sample {
			continue
		}
		for k, v := range match {
			if s.Labels[k] != v {
				continue next
			}
		}
		sum += s.Value
	}
	return sum
}

// runRoute is the serve route every sweep request takes.
const runRoute = "POST /v1/sweeps/{op}"

// registryCounts reads the counters the per-layer metrics are built from
// out of one scrape, under short names.
func registryCounts(fams map[string]*obs.Family) map[string]float64 {
	m := map[string]float64{
		"points":              sampleSum(fams, "cqla_point_eval_seconds", "cqla_point_eval_seconds_count", nil),
		"mc_trials_bitsliced": sampleSum(fams, "cqla_mc_trials_total", "cqla_mc_trials_total", map[string]string{"estimator": "bitsliced"}),
		"mc_trials_rare":      sampleSum(fams, "cqla_mc_trials_total", "cqla_mc_trials_total", map[string]string{"estimator": "rare"}),
		"queue_wait_sum":      sampleSum(fams, "cqla_job_queue_wait_seconds", "cqla_job_queue_wait_seconds_sum", nil),
		"queue_wait_count":    sampleSum(fams, "cqla_job_queue_wait_seconds", "cqla_job_queue_wait_seconds_count", nil),
		"run_sum":             sampleSum(fams, "cqla_job_run_seconds", "cqla_job_run_seconds_sum", nil),
		"run_count":           sampleSum(fams, "cqla_job_run_seconds", "cqla_job_run_seconds_count", nil),
		"result_cache_hits":   sampleSum(fams, "cqla_result_cache_hits_total", "cqla_result_cache_hits_total", nil),
		"result_cache_misses": sampleSum(fams, "cqla_result_cache_misses_total", "cqla_result_cache_misses_total", nil),
		"coalesced":           sampleSum(fams, "cqla_jobs_coalesced_total", "cqla_jobs_coalesced_total", nil),
		"http_server_sum":     sampleSum(fams, "cqla_http_request_seconds", "cqla_http_request_seconds_sum", map[string]string{"route": runRoute}),
		"http_server_count":   sampleSum(fams, "cqla_http_request_seconds", "cqla_http_request_seconds_count", map[string]string{"route": runRoute}),
	}
	for _, kind := range []string{"machine", "plan", "compiled"} {
		m["evalcache_hits_"+kind] = sampleSum(fams, "cqla_evalcache_hits_total", "cqla_evalcache_hits_total", map[string]string{"kind": kind})
		m["evalcache_misses_"+kind] = sampleSum(fams, "cqla_evalcache_misses_total", "cqla_evalcache_misses_total", map[string]string{"kind": kind})
	}
	return m
}
