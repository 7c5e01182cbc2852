package httpserve

import (
	"html/template"
	"net/http"
)

// HistoryStream is the stream name Config.History entries are indexed
// under.
const HistoryStream = "history"

// dashboardTmpl renders the operator-facing web report (Fig. 3(f)'s
// "Web Report" pane): the newest matching index entries, a per-depth
// summary, and the query form. It is deliberately dependency-free
// server-rendered HTML.
var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Tiresias — anomaly report</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
table { border-collapse: collapse; margin-top: 1rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.7rem; text-align: left; }
th { background: #f3f3f3; }
.score-high { color: #b00; font-weight: bold; }
form { margin-top: 1rem; }
.summary { color: #555; }
</style>
</head>
<body>
<h1>Tiresias anomaly report</h1>
<p class="summary">{{.Stats.Len}} retained / {{.Stats.Added}} added / {{.Stats.Evicted}} evicted
(capacity {{.Stats.Capacity}}); showing the newest {{len .Entries}}.
Depth histogram: {{range $depth, $count := .Depths}}[depth {{$depth}}: {{$count}}] {{end}}</p>
<form method="get" action="/">
  stream <input name="stream" value="{{.Form.Get "stream"}}" size="10">
  subtree <input name="under" value="{{.Form.Get "under"}}" placeholder="vho1/io2">
  from <input name="from" value="{{.Form.Get "from"}}" placeholder="2010-09-14T00:00:00Z">
  to <input name="to" value="{{.Form.Get "to"}}" placeholder="RFC 3339">
  limit <input name="limit" value="{{.Form.Get "limit"}}" size="4">
  <button>query</button>
</form>
<table>
<tr><th>Stream</th><th>Instance</th><th>Time</th><th>Location</th><th>Depth</th><th>Actual</th><th>Forecast</th><th>Ratio</th></tr>
{{range .Entries}}
<tr>
  <td>{{.Stream}}</td>
  <td>{{.Instance}}</td>
  <td>{{if not .Time.IsZero}}{{.Time.Format "2006-01-02T15:04:05Z07:00"}}{{end}}</td>
  <td>{{.Key}}</td>
  <td>{{.Depth}}</td>
  <td>{{printf "%.1f" .Actual}}</td>
  <td>{{printf "%.1f" .Forecast}}</td>
  <td class="{{if gt .Score 5.0}}score-high{{end}}">{{printf "%.1fx" .Score}}</td>
</tr>
{{end}}
</table>
</body>
</html>`))

// dashboard serves GET /: the HTML view over the anomaly index. It
// takes the same stream/under/from/to/limit parameters as
// GET /v2/anomalies but shows the newest matches first, and its
// totals are the index's own, so an operator sees when history has
// aged out.
func (s *Server) dashboard(w http.ResponseWriter, r *http.Request) {
	q, _, we := s.anomalyQuery(r)
	if we == nil {
		q.Limit, we = s.pageLimit(r)
	}
	if we != nil {
		http.Error(w, we.message, we.status)
		return
	}
	entries := s.ix.Query(q)
	depths := make(map[int]int) // the template ranges it in depth order
	for _, e := range entries {
		depths[e.Depth]++
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	// A failed Execute has already sent headers; nothing recoverable.
	_ = dashboardTmpl.Execute(w, map[string]any{
		"Stats":   s.ix.Stats(),
		"Form":    r.URL.Query(),
		"Entries": entries,
		"Depths":  depths,
	})
}
