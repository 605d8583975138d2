package coherence

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// RenderHTML writes a self-contained HTML report: the analysis JSON is
// embedded and a small inline script renders per-protocol transition
// matrices, residency bars, fan-out histograms, and an ownership
// timeline for the busiest lines. No external assets, so the file can
// be attached to a CI run or mailed around.
//
// Protocol names come from traces, and traces can be hostile (a
// replayed .fbt from an untrusted run, a fault wrapper's composed
// name); causes are a closed set the decoder checks. The payload is
// therefore escaped explicitly before embedding rather than trusting
// json.Marshal's HTML-escaping default, and the inline script only
// ever inserts those strings with textContent/createTextNode, never
// innerHTML.
func (an *Analysis) RenderHTML(w io.Writer) error {
	payload, err := json.Marshal(an)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, htmlShell, EscapeScriptPayload(payload))
	return err
}

// EscapeScriptPayload hardens a JSON document for embedding in a
// <script> element: '<', '>' and '&' become \u00XX escapes, so
// "</script>" or "<!--" inside a label cannot terminate the element,
// and U+2028/U+2029 (legal in JSON, line terminators in classic
// JavaScript) are escaped too. The replacement is byte-level but safe:
// in valid JSON those characters can only occur inside string
// literals, where the \u form is equivalent. Exported because every
// self-contained HTML report in the tree (fbt lens, fbtrend) embeds its
// data the same way.
func EscapeScriptPayload(b []byte) []byte {
	var out bytes.Buffer
	out.Grow(len(b) + 64)
	for i := 0; i < len(b); i++ {
		switch c := b[i]; c {
		case '<':
			out.WriteString(`\u003c`)
		case '>':
			out.WriteString(`\u003e`)
		case '&':
			out.WriteString(`\u0026`)
		case 0xe2: // U+2028 = E2 80 A8, U+2029 = E2 80 A9
			if i+2 < len(b) && b[i+1] == 0x80 && (b[i+2] == 0xa8 || b[i+2] == 0xa9) {
				if b[i+2] == 0xa8 {
					out.WriteString(`\u2028`)
				} else {
					out.WriteString(`\u2029`)
				}
				i += 2
			} else {
				out.WriteByte(c)
			}
		default:
			out.WriteByte(c)
		}
	}
	return out.Bytes()
}

const htmlShell = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>futurebus coherence report</title>
<style>
 body { font: 14px/1.4 system-ui, sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
 h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
 table.matrix { border-collapse: collapse; margin: .5em 0; }
 table.matrix th, table.matrix td { border: 1px solid #ccc; padding: .2em .6em; text-align: right; font-variant-numeric: tabular-nums; }
 table.matrix td.hot { background: #fde8e8; }
 .bar { display: inline-block; height: .9em; vertical-align: middle; }
 .M { background:#d33; } .O { background:#e80; } .E { background:#85d; } .S { background:#27b; } .I { background:#bbb; }
 .legend span { margin-right: 1em; }
 .chip { display:inline-block; width:.8em; height:.8em; vertical-align:middle; margin-right:.3em; }
 .timeline { position: relative; height: 1.1em; background: #f4f4f4; margin: .15em 0; }
 .timeline .seg { position: absolute; top: 0; bottom: 0; }
 .addr { font-family: ui-monospace, monospace; }
 .muted { color: #777; }
</style>
</head>
<body>
<h1>futurebus coherence report</h1>
<div id="root"></div>
<script id="data" type="application/json">%s</script>
<script>
const A = JSON.parse(document.getElementById('data').textContent);
const STATES = ["M","O","E","S","I"];
const root = document.getElementById('root');
function el(tag, cls, text) {
  const e = document.createElement(tag);
  if (cls) e.className = cls;
  if (text !== undefined) e.textContent = text;
  return e;
}
root.appendChild(el('p', 'muted',
  A.events + ' events (' + A.state_events + ' state transitions), ' + A.lines +
  ' lines, span ' + (A.span_ns/1e6).toFixed(2) + ' ms'));
const legend = el('p', 'legend');
for (const s of STATES) {
  const span = el('span');
  span.appendChild(el('span', 'chip ' + s));
  span.appendChild(document.createTextNode(s));
  legend.appendChild(span);
}
root.appendChild(legend);
for (const name of Object.keys(A.protocols || {}).sort()) {
  const p = A.protocols[name];
  root.appendChild(el('h2', null, 'protocol ' + name));
  root.appendChild(el('p', 'muted', p.transitions + ' transitions, ' +
    p.invalidations + ' snoop invalidations, ' + p.ownership_moves + ' ownership moves, reads ' +
    p.cache_sourced + ' cache-to-cache / ' + p.mem_sourced + ' memory'));
  const tbl = el('table', 'matrix');
  const head = el('tr'); head.appendChild(el('th', null, 'from \\ to'));
  for (const s of STATES) head.appendChild(el('th', null, s));
  tbl.appendChild(head);
  let max = 1;
  for (const row of p.matrix) for (const v of row) if (v > max) max = v;
  p.matrix.forEach((row, f) => {
    const tr = el('tr'); tr.appendChild(el('th', null, STATES[f]));
    row.forEach(v => tr.appendChild(el('td', v > max/4 ? 'hot' : null, String(v))));
    tbl.appendChild(tr);
  });
  root.appendChild(tbl);
  const total = (p.residency_ns || []).reduce((a, b) => a + b, 0);
  if (total > 0) {
    const res = el('p');
    res.appendChild(document.createTextNode('residency: '));
    p.residency_ns.forEach((v, i) => {
      if (!v) return;
      const bar = el('span', 'bar ' + STATES[i]);
      bar.style.width = (200 * v / total).toFixed(1) + 'px';
      bar.title = STATES[i] + ' ' + (100 * v / total).toFixed(1) + '%%';
      res.appendChild(bar);
      res.appendChild(document.createTextNode(' ' + STATES[i] + ' ' + (100 * v / total).toFixed(1) + '%% '));
    });
    root.appendChild(res);
  }
  for (const [label, h] of [['invalidation fan-out', p.inv_fanout], ['update fan-out', p.upd_fanout]]) {
    if (!h || !Object.keys(h).length) continue;
    const txt = Object.keys(h).map(Number).sort((a, b) => a - b)
      .map(k => k + '×' + h[k]).join('  ');
    root.appendChild(el('p', 'muted', label + ': ' + txt));
  }
}
if (A.top_lines && A.top_lines.length) {
  root.appendChild(el('h2', null, 'ownership timeline (top lines)'));
  const span = Math.max(1, A.span_ns);
  for (const line of A.top_lines) {
    const p = el('p');
    const label = el('span', 'addr', '0x' + line.addr.toString(16).padStart(8, '0'));
    label.title = line.events + ' transitions, ' + line.owners + ' owners';
    p.appendChild(label);
    p.appendChild(el('span', 'muted', '  ' + line.events + ' transitions'));
    const tl = el('div', 'timeline');
    const chain = line.chain || [];
    chain.forEach((seg, i) => {
      if (seg.proc < 0) return;
      const end = i + 1 < chain.length ? chain[i + 1].ts : span;
      const d = el('div', 'seg ' + seg.state);
      d.style.left = (100 * seg.ts / span) + '%%';
      d.style.width = Math.max(0.2, 100 * (end - seg.ts) / span) + '%%';
      d.title = 'P' + seg.proc + ' (' + seg.state + ') @' + seg.ts + 'ns';
      tl.appendChild(d);
    });
    p.appendChild(tl);
    root.appendChild(p);
  }
}
</script>
</body>
</html>
`
