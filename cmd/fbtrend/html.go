package main

import (
	"encoding/json"
	"fmt"
	"io"

	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/regress"
)

// htmlSeries is one metric's dashboard payload: the run series plus
// the analysis the page annotates it with.
type htmlSeries struct {
	Key    string    `json:"key"`
	Family string    `json:"family"`
	Values []float64 `json:"values"`
	// Runs holds the git SHA (or "") of each value's record.
	Runs     []string `json:"runs"`
	Slope    float64  `json:"slope"`
	Steps    []int    `json:"steps,omitempty"`
	Advisory bool     `json:"advisory,omitempty"`
	BetterUp bool     `json:"better_up,omitempty"`
}

// htmlDoc is the embedded dashboard payload.
type htmlDoc struct {
	Records int          `json:"records"`
	Series  []htmlSeries `json:"series"`
}

// renderHTML writes the self-contained sparkline dashboard: one row
// per metric, grouped by family, changepoints marked. Data is embedded
// with the same script-payload escaping as the fbt lens report and the
// page only builds DOM via textContent — metric keys and labels come
// from ingested files, which may be hostile.
func renderHTML(w io.Writer, recs []ledger.Record) error {
	doc := htmlDoc{Records: len(recs)}
	for _, key := range seriesKeys(recs) {
		s := htmlSeries{
			Key:      key,
			Family:   family(key),
			Advisory: regress.Advisory(key),
			BetterUp: regress.BetterUp(key),
		}
		for _, r := range recs {
			if v, ok := r.Metrics[key]; ok {
				s.Values = append(s.Values, v)
				s.Runs = append(s.Runs, r.Meta.GitSHA)
			}
		}
		s.Slope = regress.Slope(s.Values)
		s.Steps = regress.Changepoints(s.Values, regress.DefaultWindow, regress.DefaultK, regress.ThresholdsFor(key, 0))
		doc.Series = append(doc.Series, s)
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, htmlShell, coherence.EscapeScriptPayload(payload))
	return err
}

const htmlShell = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>futurebus trend report</title>
<style>
 body { font: 14px/1.4 system-ui, sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
 h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
 table { border-collapse: collapse; }
 td, th { padding: .2em .7em; text-align: left; font-variant-numeric: tabular-nums; }
 tr:nth-child(even) { background: #f7f7f7; }
 .key { font-family: ui-monospace, monospace; font-size: 12px; }
 .num { text-align: right; }
 .muted { color: #777; }
 .stepmark { color: #d33; font-weight: bold; }
 svg.spark { vertical-align: middle; }
 .spark polyline { fill: none; stroke: #27b; stroke-width: 1.2; }
 .spark circle.step { fill: #d33; }
 .spark circle.last { fill: #27b; }
</style>
</head>
<body>
<h1>futurebus trend report</h1>
<div id="root"></div>
<script id="data" type="application/json">%s</script>
<script>
const D = JSON.parse(document.getElementById('data').textContent);
const root = document.getElementById('root');
const SVGNS = 'http://www.w3.org/2000/svg';
function el(tag, cls, text) {
  const e = document.createElement(tag);
  if (cls) e.className = cls;
  if (text !== undefined) e.textContent = text;
  return e;
}
function spark(s) {
  const W = 180, H = 28, P = 2;
  const svg = document.createElementNS(SVGNS, 'svg');
  svg.setAttribute('class', 'spark');
  svg.setAttribute('width', W); svg.setAttribute('height', H);
  const v = s.values;
  if (!v.length) return svg;
  let lo = Math.min(...v), hi = Math.max(...v);
  if (hi === lo) { hi += 1; lo -= 1; }
  const x = i => v.length < 2 ? W / 2 : P + (W - 2*P) * i / (v.length - 1);
  const y = val => H - P - (H - 2*P) * (val - lo) / (hi - lo);
  const line = document.createElementNS(SVGNS, 'polyline');
  line.setAttribute('points', v.map((val, i) => x(i) + ',' + y(val)).join(' '));
  svg.appendChild(line);
  for (const i of s.steps || []) {
    const c = document.createElementNS(SVGNS, 'circle');
    c.setAttribute('class', 'step');
    c.setAttribute('cx', x(i)); c.setAttribute('cy', y(v[i])); c.setAttribute('r', 2.5);
    const t = document.createElementNS(SVGNS, 'title');
    t.textContent = 'step at run ' + i + (s.runs[i] ? ' (' + s.runs[i] + ')' : '');
    c.appendChild(t);
    svg.appendChild(c);
  }
  const last = document.createElementNS(SVGNS, 'circle');
  last.setAttribute('class', 'last');
  last.setAttribute('cx', x(v.length - 1)); last.setAttribute('cy', y(v[v.length - 1]));
  last.setAttribute('r', 2);
  svg.appendChild(last);
  return svg;
}
root.appendChild(el('p', 'muted', D.records + ' ledger records, ' + D.series.length + ' metrics'));
const families = [...new Set(D.series.map(s => s.family))];
for (const fam of families) {
  root.appendChild(el('h2', null, fam));
  const tbl = el('table');
  const head = el('tr');
  for (const h of ['metric', 'runs', 'last', 'slope/run', 'trend', 'steps']) head.appendChild(el('th', null, h));
  tbl.appendChild(head);
  for (const s of D.series.filter(s => s.family === fam)) {
    const tr = el('tr');
    let key = s.key;
    if (s.advisory) key += '  (advisory)';
    if (s.better_up) key += '  (better-up)';
    tr.appendChild(el('td', 'key', key));
    tr.appendChild(el('td', 'num', String(s.values.length)));
    tr.appendChild(el('td', 'num', s.values.length ? s.values[s.values.length - 1].toPrecision(6) : '-'));
    tr.appendChild(el('td', 'num', s.slope.toPrecision(3)));
    const cell = el('td');
    cell.appendChild(spark(s));
    tr.appendChild(cell);
    tr.appendChild(el('td', (s.steps || []).length ? 'stepmark' : 'muted', String((s.steps || []).length)));
    tbl.appendChild(tr);
  }
  root.appendChild(tbl);
}
</script>
</body>
</html>
`
