package main

import "testing"

const scrapeBefore = `# HELP godisc_requests_total requests admitted
# TYPE godisc_requests_total counter
godisc_requests_total 10
godisc_http_requests_total{code="200",route="/v2/models/{model}/infer"} 8
godisc_http_requests_total{code="404",route="/v2/models/{model}/infer"} 2
godisc_pool_peak_elems{graph="bert"} 4096
`

const scrapeAfter = `godisc_requests_total 25 1700000000000
godisc_http_requests_total{code="200",route="/v2/models/{model}/infer"} 20
godisc_http_requests_total{code="200",route="/v2/repository/models/{model}/load"} 3
godisc_http_requests_total{code="404",route="/v2/models/{model}/infer"} 2
godisc_pool_peak_elems{graph="bert"} 8192
godisc_fleet_evictions_total{reason="a b"} 1.5e+01
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"godisc_requests_total", nil, 15},
		{"godisc_http_requests_total", nil, 15},
		{"godisc_http_requests_total", []string{`code="200"`}, 15},
		{"godisc_http_requests_total", []string{`code="404"`}, 0},
		{"godisc_http_requests_total", []string{`code="200"`, `route="/v2/repository/models/{model}/load"`}, 3},
		// A series that appears between the scrapes counts from zero, and a
		// label value may contain a space.
		{"godisc_fleet_evictions_total", nil, 15},
		{"godisc_requests", nil, 0}, // a prefix is not the metric
	} {
		if got := d.sum(tc.name, tc.labels...); got != tc.want {
			t.Errorf("delta %s%v = %v, want %v", tc.name, tc.labels, got, tc.want)
		}
	}
	if got := after.sum("godisc_pool_peak_elems"); got != 8192 {
		t.Errorf("gauge read from the closing scrape = %v, want 8192", got)
	}
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"godisc_requests_total",     // no value
		"godisc_requests_total ten", // not a number
		`godisc_x{code="200" 3`,     // unbalanced braces
		`godisc_x{code="200"}`,      // labels but no value
	} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}
