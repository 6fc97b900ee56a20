package exec_test

import (
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
)

func testEnv(t *testing.T) (*storage.Catalog, *exec.Env) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	return cat, env
}

func run(t *testing.T, cat *storage.Catalog, env *exec.Env, sql string) *storage.Table {
	t.Helper()
	plan, err := logical.NewBuilder(cat).BuildSQL(sql)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	out, err := exec.Run(plan, env, nil)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return out
}

func TestExtractAllRows(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, "SELECT tweet_id FROM tweets")
	log, _ := cat.Log(data.TweetsLog)
	if out.NumRows() != log.NumLines() {
		t.Fatalf("got %d rows, want %d", out.NumRows(), log.NumLines())
	}
}

func TestFilterSelectivity(t *testing.T) {
	cat, env := testEnv(t)
	all := run(t, cat, env, "SELECT tweet_id FROM tweets")
	en := run(t, cat, env, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	if en.NumRows() == 0 || en.NumRows() >= all.NumRows() {
		t.Fatalf("filter not selective: %d of %d", en.NumRows(), all.NumRows())
	}
	// lang='en' appears 3 of 8 times in the generator's distribution.
	frac := float64(en.NumRows()) / float64(all.NumRows())
	if frac < 0.25 || frac > 0.5 {
		t.Errorf("lang='en' fraction %.2f outside [0.25, 0.5]", frac)
	}
}

func TestProjectionExpressions(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, "SELECT retweets * 2 AS dbl, UPPER(lang) AS lg FROM tweets LIMIT 5")
	if out.NumRows() != 5 {
		t.Fatalf("limit: got %d rows", out.NumRows())
	}
	if out.Schema.Index("dbl") != 0 || out.Schema.Index("lg") != 1 {
		t.Fatalf("schema: %s", out.Schema)
	}
	for _, r := range out.Rows {
		if r[0].Kind != storage.KindInt {
			t.Fatalf("dbl kind = %v", r[0].Kind)
		}
		s := r[1].S
		for _, c := range s {
			if c >= 'a' && c <= 'z' {
				t.Fatalf("UPPER produced %q", s)
			}
		}
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env,
		"SELECT c.checkin_id, l.city FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id")
	// Independently count matches.
	checkins := run(t, cat, env, "SELECT venue_id FROM checkins")
	marks := run(t, cat, env, "SELECT venue_id FROM landmarks")
	count := 0
	for _, cr := range checkins.Rows {
		for _, mr := range marks.Rows {
			if storage.Equal(cr[0], mr[0]) {
				count++
			}
		}
	}
	if out.NumRows() != count {
		t.Fatalf("join rows = %d, nested loop = %d", out.NumRows(), count)
	}
	if count == 0 {
		t.Fatal("join produced no matches; data generator key overlap broken")
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	cat, env := testEnv(t)
	inner := run(t, cat, env,
		"SELECT c.checkin_id FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id")
	left := run(t, cat, env,
		"SELECT c.checkin_id, l.city FROM checkins c LEFT JOIN landmarks l ON c.venue_id = l.venue_id")
	all := run(t, cat, env, "SELECT checkin_id FROM checkins")
	if left.NumRows() < all.NumRows() {
		t.Fatalf("left join lost rows: %d < %d", left.NumRows(), all.NumRows())
	}
	if left.NumRows() < inner.NumRows() {
		t.Fatalf("left join %d < inner join %d", left.NumRows(), inner.NumRows())
	}
	sawNull := false
	for _, r := range left.Rows {
		if r[1].IsNull() {
			sawNull = true
			break
		}
	}
	if !sawNull {
		t.Error("expected at least one NULL city from unmatched checkins")
	}
}

func TestAggregateGroupCount(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env,
		"SELECT lang, COUNT(*) AS n, AVG(retweets) AS ar FROM tweets GROUP BY lang")
	if out.NumRows() == 0 || out.NumRows() > 8 {
		t.Fatalf("groups = %d, want 1..8", out.NumRows())
	}
	var total int64
	for _, r := range out.Rows {
		total += r[1].I
		if r[2].Kind != storage.KindFloat {
			t.Fatalf("AVG kind = %v", r[2].Kind)
		}
		if r[2].F < 0 || r[2].F > 500 {
			t.Fatalf("AVG out of range: %v", r[2].F)
		}
	}
	log, _ := cat.Log(data.TweetsLog)
	if total != int64(log.NumLines()) {
		t.Fatalf("sum of group counts %d != %d rows", total, log.NumLines())
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	cat, env := testEnv(t)
	all := run(t, cat, env, "SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag")
	some := run(t, cat, env, "SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag HAVING COUNT(*) > 50")
	want := 0
	for _, r := range all.Rows {
		if r[1].I > 50 {
			want++
		}
	}
	if some.NumRows() != want {
		t.Fatalf("HAVING kept %d groups, want %d", some.NumRows(), want)
	}
	for _, r := range some.Rows {
		if r[1].I <= 50 {
			t.Fatalf("group with count %d survived HAVING > 50", r[1].I)
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env,
		"SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag ORDER BY n DESC LIMIT 3")
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for i := 1; i < out.NumRows(); i++ {
		if out.Rows[i][1].I > out.Rows[i-1][1].I {
			t.Fatalf("not sorted desc: %v then %v", out.Rows[i-1][1], out.Rows[i][1])
		}
	}
}

func TestDistinct(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, "SELECT DISTINCT lang FROM tweets")
	seen := map[string]bool{}
	for _, r := range out.Rows {
		if seen[r[0].S] {
			t.Fatalf("duplicate %q after DISTINCT", r[0].S)
		}
		seen[r[0].S] = true
	}
	if len(seen) == 0 || len(seen) > 8 {
		t.Fatalf("distinct langs = %d", len(seen))
	}
}

func TestUDFSentiment(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env,
		"SELECT tweet_id, SENTIMENT(text) AS s FROM tweets WHERE SENTIMENT(text) > 0")
	if out.NumRows() == 0 {
		t.Fatal("no positive-sentiment tweets found")
	}
	for _, r := range out.Rows {
		if r[1].F <= 0 {
			t.Fatalf("filter leaked sentiment %v", r[1].F)
		}
	}
}

func TestSubqueryJoin(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, `
		SELECT u.user_id, u.n, c.venue_id
		FROM (SELECT user_id, COUNT(*) AS n FROM tweets GROUP BY user_id) u
		JOIN checkins c ON u.user_id = c.user_id
		WHERE u.n > 2`)
	if out.NumRows() == 0 {
		t.Fatal("subquery join empty; user id overlap broken")
	}
	for _, r := range out.Rows {
		if r[1].I <= 2 {
			t.Fatalf("WHERE on subquery column leaked n=%d", r[1].I)
		}
	}
}

func TestCountDistinct(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, "SELECT COUNT(DISTINCT user_id) AS u FROM tweets")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	distinct := run(t, cat, env, "SELECT DISTINCT user_id FROM tweets")
	if out.Rows[0][0].I != int64(distinct.NumRows()) {
		t.Fatalf("COUNT(DISTINCT) = %d, want %d", out.Rows[0][0].I, distinct.NumRows())
	}
}

func TestThreeWayJoinWithUDF(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, `
		SELECT l.city, COUNT(*) AS n, AVG(SENTIMENT(t.text)) AS s
		FROM tweets t
		JOIN checkins c ON t.user_id = c.user_id
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE t.lang = 'en'
		GROUP BY l.city
		ORDER BY n DESC`)
	if out.NumRows() == 0 {
		t.Fatal("three-way join produced nothing")
	}
	if got := out.Schema.Names(); got[0] != "city" || got[1] != "n" || got[2] != "s" {
		t.Fatalf("schema names = %v", got)
	}
}
