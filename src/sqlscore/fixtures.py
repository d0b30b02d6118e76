"""Built-in mini benchmark: two SQLite databases and a 31-question corpus.

benchmark_1 models an ad-campaign warehouse (campaign metadata, real and
predicted metric logs sharing one layout, a filter log, and a term
dictionary mapping internal keys to descriptions).  benchmark_2 models
systems operations (hosts, timestamped metrics, an incident log).  All
timestamps span 2023-01-02 through 2023-01-17 00:00:00, matching the
default clock anchor, and every value is deterministic so tests can verify
query output by hand.

Every question category appears at least three times, with questions in
English and Chinese; the ``language`` category uses mixed-script questions
(English technical terms embedded in Chinese text).
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from .corpus import database_path


def _metric_times() -> list[str]:
    days = [f"2023-01-{day:02d} 12:00:00" for day in range(2, 17)]
    return days + ["2023-01-17 00:00:00"]


def _build_benchmark_1(conn: sqlite3.Connection) -> None:
    conn.executescript(
        """
        CREATE TABLE campaigns (
            campaign_id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            city TEXT NOT NULL,
            product TEXT NOT NULL,
            budget REAL NOT NULL,
            start_ts TIMESTAMP NOT NULL
        );
        CREATE TABLE metric_log_real (
            campaign_id INTEGER NOT NULL,
            metric TEXT NOT NULL,
            value REAL NOT NULL,
            ts TIMESTAMP NOT NULL
        );
        CREATE TABLE metric_log_predicted (
            campaign_id INTEGER NOT NULL,
            metric TEXT NOT NULL,
            value REAL NOT NULL,
            ts TIMESTAMP NOT NULL
        );
        CREATE TABLE pre_ranking_filter_log (
            task INTEGER NOT NULL,
            filter_key TEXT NOT NULL,
            filtered_count INTEGER NOT NULL,
            ts TIMESTAMP NOT NULL
        );
        CREATE TABLE term_dictionary (
            term TEXT PRIMARY KEY,
            description TEXT NOT NULL
        );
        """
    )
    conn.executemany(
        "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?, ?)",
        [
            (1, "winter_push", "dublin", "chocolate", 12000.0, "2023-01-02 09:00:00"),
            (2, "new_year_promo", "london", "ice cream", 9000.0, "2023-01-03 09:00:00"),
            (3, "brand_lift", "paris", "chocolate", 15000.0, "2023-01-04 09:00:00"),
            (4, "spring_teaser", "dublin", "biscuits", 7000.0, "2023-01-05 09:00:00"),
            (5, "retarget_wave", "berlin", "ice cream", 11000.0, "2023-01-06 09:00:00"),
            (6, "loyalty_boost", "london", "chocolate", 8000.0, "2023-01-07 09:00:00"),
        ],
    )
    # one reading per campaign, metric and time point; values are simple
    # linear functions of (campaign, day) so expected aggregates are exact
    real_rows = []
    predicted_rows = []
    for campaign in (1, 2, 3):
        for i, ts in enumerate(_metric_times()):
            grid = {
                "avg_ctr": (round(0.01 * campaign + 0.001 * i, 6), 0.0005),
                "avg_cvr": (round(0.002 * campaign + 0.0001 * i, 6), 0.0002),
                "spend": (float(100 * campaign + 10 * i), 7.0),
            }
            for metric, (value, drift) in grid.items():
                real_rows.append((campaign, metric, value, ts))
                predicted_rows.append((campaign, metric, round(value + drift, 6), ts))
    conn.executemany("INSERT INTO metric_log_real VALUES (?, ?, ?, ?)", real_rows)
    conn.executemany("INSERT INTO metric_log_predicted VALUES (?, ?, ?, ?)", predicted_rows)

    filter_days = {
        (342111, "o_rta_filter"): ["2023-01-02 10:30:00", "2023-01-04 10:30:00", "2023-01-06 10:30:00",
                                   "2023-01-09 10:30:00", "2023-01-13 10:30:00", "2023-01-15 10:30:00",
                                   "2023-01-17 00:00:00"],
        (342111, "o_rank_filter_vector"): ["2023-01-03 10:30:00", "2023-01-08 10:30:00",
                                           "2023-01-12 10:30:00", "2023-01-16 10:30:00"],
        (342112, "o_rta_filter"): ["2023-01-05 10:30:00", "2023-01-10 10:30:00", "2023-01-14 10:30:00"],
        (342112, "o_rank_filter_vector"): ["2023-01-02 10:30:00", "2023-01-07 10:30:00", "2023-01-11 10:30:00",
                                           "2023-01-15 10:30:00", "2023-01-16 10:30:00"],
    }
    rows = []
    count = 100
    for (task, key), stamps in filter_days.items():
        for ts in stamps:
            rows.append((task, key, count, ts))
            count += 1
    conn.executemany("INSERT INTO pre_ranking_filter_log VALUES (?, ?, ?, ?)", rows)

    conn.executemany(
        "INSERT INTO term_dictionary VALUES (?, ?)",
        [
            ("o_rta_filter", "real time audience filter"),
            ("o_rank_filter_vector", "vector engine ranking filter"),
            ("avg_ctr", "average click through rate"),
            ("avg_cvr", "average conversion rate"),
            ("spend", "daily campaign spend"),
        ],
    )


def _build_benchmark_2(conn: sqlite3.Connection) -> None:
    conn.executescript(
        """
        CREATE TABLE hosts (
            host_id INTEGER PRIMARY KEY,
            hostname TEXT NOT NULL,
            region TEXT NOT NULL
        );
        CREATE TABLE system_metrics (
            host_id INTEGER NOT NULL,
            metric TEXT NOT NULL,
            value REAL NOT NULL,
            ts TIMESTAMP NOT NULL
        );
        CREATE TABLE incident_log (
            incident_id INTEGER PRIMARY KEY,
            host_id INTEGER NOT NULL,
            severity TEXT NOT NULL,
            status TEXT NOT NULL,
            opened_ts TIMESTAMP NOT NULL,
            resolved_ts TIMESTAMP
        );
        """
    )
    conn.executemany(
        "INSERT INTO hosts VALUES (?, ?, ?)",
        [
            (1, "edge-01", "eu-west"),
            (2, "edge-02", "eu-west"),
            (3, "core-01", "ap-east"),
            (4, "core-02", "ap-east"),
        ],
    )
    rows = []
    # daily midnight cpu readings, 2023-01-02 .. 2023-01-17 inclusive
    midnights = [f"2023-01-{day:02d} 00:00:00" for day in range(2, 18)]
    for i, ts in enumerate(midnights):
        rows.append((1, "cpu_util", float(40 + i), ts))
        rows.append((2, "cpu_util", float(60 - i), ts))
        rows.append((3, "cpu_util", float(30 + 2 * i), ts))
    for i, day in enumerate(range(2, 17)):
        rows.append((1, "mem_util", float(30 + i), f"2023-01-{day:02d} 06:00:00"))
    conn.executemany("INSERT INTO system_metrics VALUES (?, ?, ?, ?)", rows)

    conn.executemany(
        "INSERT INTO incident_log VALUES (?, ?, ?, ?, ?, ?)",
        [
            (1, 1, "critical", "resolved", "2023-01-02 10:00:00", "2023-01-03 08:00:00"),
            (2, 2, "major", "resolved", "2023-01-04 11:30:00", "2023-01-05 09:00:00"),
            (3, 1, "minor", "resolved", "2023-01-05 09:15:00", "2023-01-05 17:00:00"),
            (4, 3, "critical", "open", "2023-01-08 14:45:00", None),
            (5, 2, "minor", "resolved", "2023-01-09 16:20:00", "2023-01-10 07:30:00"),
            (6, 4, "major", "resolved", "2023-01-11 12:00:00", "2023-01-12 06:45:00"),
            (7, 1, "critical", "open", "2023-01-14 23:10:00", None),
            (8, 3, "minor", "open", "2023-01-17 00:00:00", None),
        ],
    )


FIXTURE_QUESTIONS: list[dict] = [
    {
        "db_id": "benchmark_1",
        "query": "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter'",
        "question": "rta filtering count for task 342111?",
        "language": "en",
        "case_type": "filtering",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT name, product FROM campaigns WHERE city = 'dublin' ORDER BY name",
        "question": "which campaigns run in dublin?",
        "language": "en",
        "case_type": "filtering",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT description FROM term_dictionary WHERE term = 'o_rank_filter_vector'",
        "question": "what does o_rank_filter_vector mean?",
        "language": "en",
        "case_type": "filtering",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT hostname FROM hosts WHERE region = 'eu-west' ORDER BY hostname",
        "question": "eu-west 区域有哪些主机？",
        "language": "zh",
        "case_type": "filtering",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT incident_id, host_id FROM incident_log WHERE severity = 'critical' AND status = 'open' ORDER BY incident_id",
        "question": "which critical incidents are still open?",
        "language": "en",
        "case_type": "filtering",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT ts, value FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= datetime('now', '-14 days') ORDER BY ts",
        "question": "cpu utilisation of edge-01 over the last 2 weeks",
        "language": "en",
        "case_type": "time_period",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT ts, value FROM metric_log_real WHERE metric = 'spend' AND campaign_id = 1 AND ts >= datetime('now', '-7 days') ORDER BY ts",
        "question": "spend of campaign 1 in the last 7 days",
        "language": "en",
        "case_type": "time_period",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter' AND ts >= datetime('now', '-5 days')",
        "question": "任务 342111 最近 5 天的 rta 过滤次数",
        "language": "zh",
        "case_type": "time_period",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT incident_id, severity FROM incident_log WHERE opened_ts >= datetime('now', '-10 days') ORDER BY incident_id",
        "question": "incidents opened in the last 10 days",
        "language": "en",
        "case_type": "time_period",
    },
    {
        "db_id": "benchmark_1",
        "query": "WITH c1 AS (SELECT sum(value) AS total FROM metric_log_real WHERE metric = 'spend' AND campaign_id = 1), c2 AS (SELECT sum(value) AS total FROM metric_log_real WHERE metric = 'spend' AND campaign_id = 2) SELECT c1.total, c2.total FROM c1, c2",
        "question": "compare total spend of campaign 1 versus campaign 2",
        "language": "en",
        "case_type": "comparison",
    },
    {
        "db_id": "benchmark_1",
        "query": "WITH a AS (SELECT avg(value) AS v FROM metric_log_real WHERE metric = 'avg_ctr' AND campaign_id = 1), b AS (SELECT avg(value) AS v FROM metric_log_real WHERE metric = 'avg_ctr' AND campaign_id = 3) SELECT a.v, b.v FROM a, b",
        "question": "比较广告活动 1 和 3 的平均点击率",
        "language": "zh",
        "case_type": "comparison",
    },
    {
        "db_id": "benchmark_2",
        "query": "WITH open_incidents AS (SELECT count(*) AS n FROM incident_log WHERE status = 'open'), resolved_incidents AS (SELECT count(*) AS n FROM incident_log WHERE status = 'resolved') SELECT open_incidents.n, resolved_incidents.n FROM open_incidents, resolved_incidents",
        "question": "compare the number of open versus resolved incidents",
        "language": "en",
        "case_type": "comparison",
    },
    {
        "db_id": "benchmark_2",
        "query": "WITH this_week AS (SELECT sum(value) AS total FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= datetime('now', '-7 days')), prior_week AS (SELECT sum(value) AS total FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= datetime('now', '-14 days') AND ts < datetime('now', '-7 days')) SELECT this_week.total, prior_week.total FROM this_week, prior_week",
        "question": "total cpu utilisation of edge-01 this week versus the week before",
        "language": "en",
        "case_type": "trend_comparison",
    },
    {
        "db_id": "benchmark_1",
        "query": "WITH this_week AS (SELECT sum(value) AS total FROM metric_log_real WHERE metric = 'spend' AND campaign_id = 2 AND ts >= datetime('now', '-7 days')), prior_week AS (SELECT sum(value) AS total FROM metric_log_real WHERE metric = 'spend' AND campaign_id = 2 AND ts >= datetime('now', '-14 days') AND ts < datetime('now', '-7 days')) SELECT this_week.total, prior_week.total FROM this_week, prior_week",
        "question": "spend of campaign 2 this week versus the week before",
        "language": "en",
        "case_type": "trend_comparison",
    },
    {
        "db_id": "benchmark_1",
        "query": "WITH this_week AS (SELECT avg(value) AS v FROM metric_log_real WHERE metric = 'avg_ctr' AND campaign_id = 1 AND ts >= datetime('now', '-7 days')), prior_week AS (SELECT avg(value) AS v FROM metric_log_real WHERE metric = 'avg_ctr' AND campaign_id = 1 AND ts >= datetime('now', '-14 days') AND ts < datetime('now', '-7 days')) SELECT this_week.v, prior_week.v FROM this_week, prior_week",
        "question": "广告活动 1 本周与上周的平均点击率对比",
        "language": "zh",
        "case_type": "trend_comparison",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT campaigns.name, sum(metric_log_real.value) AS total_spend FROM campaigns JOIN metric_log_real ON campaigns.campaign_id = metric_log_real.campaign_id WHERE metric_log_real.metric = 'spend' GROUP BY campaigns.name ORDER BY campaigns.name",
        "question": "total spend per campaign name",
        "language": "en",
        "case_type": "multi_table",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT avg(metric_log_real.value) AS real_ctr, avg(metric_log_predicted.value) AS predicted_ctr FROM metric_log_real JOIN metric_log_predicted ON metric_log_real.campaign_id = metric_log_predicted.campaign_id AND metric_log_real.ts = metric_log_predicted.ts AND metric_log_real.metric = metric_log_predicted.metric WHERE metric_log_real.metric = 'avg_ctr' AND metric_log_real.campaign_id = 1",
        "question": "average real versus predicted click through rate for campaign 1",
        "language": "en",
        "case_type": "multi_table",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT hosts.region, avg(system_metrics.value) AS avg_cpu FROM hosts JOIN system_metrics ON hosts.host_id = system_metrics.host_id WHERE system_metrics.metric = 'cpu_util' GROUP BY hosts.region ORDER BY hosts.region",
        "question": "average cpu utilisation per region",
        "language": "en",
        "case_type": "multi_table",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT hosts.hostname, count(*) AS incidents FROM hosts JOIN incident_log ON hosts.host_id = incident_log.host_id GROUP BY hosts.hostname ORDER BY hosts.hostname",
        "question": "每台主机的事件数量",
        "language": "zh",
        "case_type": "multi_table",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT name, budget FROM campaigns ORDER BY budget DESC LIMIT 3",
        "question": "top 3 campaigns by budget",
        "language": "en",
        "case_type": "rank",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT campaign_id, sum(value) AS total FROM metric_log_real WHERE metric = 'spend' GROUP BY campaign_id ORDER BY sum(value) DESC LIMIT 2",
        "question": "按总支出排名前 2 的广告活动",
        "language": "zh",
        "case_type": "rank",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT host_id, avg(value) AS avg_cpu FROM system_metrics WHERE metric = 'cpu_util' GROUP BY host_id ORDER BY avg(value) DESC LIMIT 1",
        "question": "which host has the highest average cpu utilisation?",
        "language": "en",
        "case_type": "rank",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT city, 100.0 * sum(budget) / (SELECT sum(budget) FROM campaigns) AS share FROM campaigns GROUP BY city ORDER BY city",
        "question": "share of total budget per city",
        "language": "en",
        "case_type": "percentage",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT 100.0 * sum(filter_key = 'o_rta_filter') / count(*) AS share FROM pre_ranking_filter_log WHERE task = 342111",
        "question": "任务 342111 中 o_rta_filter 的占比是多少",
        "language": "zh",
        "case_type": "percentage",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT 100.0 * sum(status = 'resolved') / count(*) AS resolved_share FROM incident_log",
        "question": "what percentage of incidents are resolved?",
        "language": "en",
        "case_type": "percentage",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT avg(budget) FROM campaigns",
        "question": "average campaign budget",
        "language": "en",
        "case_type": "aggregation",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT campaign_id, sum(value) AS total FROM metric_log_predicted WHERE metric = 'spend' GROUP BY campaign_id ORDER BY campaign_id",
        "question": "total predicted spend per campaign",
        "language": "en",
        "case_type": "aggregation",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT severity, count(*) AS n FROM incident_log GROUP BY severity ORDER BY severity",
        "question": "每个严重级别有多少事件",
        "language": "zh",
        "case_type": "aggregation",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT avg(value) FROM metric_log_real WHERE metric = 'avg_cvr'",
        "question": "平均 CVR 是多少",
        "language": "zh",
        "case_type": "language",
    },
    {
        "db_id": "benchmark_1",
        "query": "SELECT avg(value) FROM metric_log_real WHERE metric = 'avg_ctr' AND campaign_id = 1",
        "question": "广告活动 1 的平均 CTR 是多少",
        "language": "zh",
        "case_type": "language",
    },
    {
        "db_id": "benchmark_2",
        "query": "SELECT avg(value) FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1",
        "question": "edge-01 的平均 cpu_util 是多少",
        "language": "zh",
        "case_type": "language",
    },
]

_BUILDERS = {"benchmark_1": _build_benchmark_1, "benchmark_2": _build_benchmark_2}


def build_fixture_database(db_id: str, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    conn = sqlite3.connect(path)
    try:
        _BUILDERS[db_id](conn)
        conn.commit()
    finally:
        conn.close()
    return path


def write_fixtures(out_dir: str | Path) -> tuple[Path, Path]:
    """Materialize the corpus and databases; returns (corpus path, db dir)."""
    out_dir = Path(out_dir)
    db_dir = out_dir / "db"
    db_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "questions.json"
    corpus_path.write_text(json.dumps(FIXTURE_QUESTIONS, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for db_id in _BUILDERS:
        build_fixture_database(db_id, database_path(db_dir, db_id))
    return corpus_path, db_dir
