"""SearchService tabular replay: covered queries served from columns.

A daemon started with ``--table`` must answer covered queries by
replaying the artifact — same bytes as a live search, milliseconds of
work — and must fall back to the live pipeline (without counting a
replay) the moment any coverage condition fails: wrong seed, wrong
device, wrong layout, or a non-"front" recipe.
"""

import pytest

from repro.serve import FrontQuery, SearchService, ServeConfig
from repro.serve.pipeline import space_for_layout
from repro.serve.service import _json_bytes
from repro.tabular import TabularArtifactError, save_artifact, tabulate

# The mini layout is the only registered layout small enough to
# tabulate exhaustively (15^4 = 50,625 architectures).
MINI_QUERY_KW = dict(
    device="edge", layout="mini", seed=3, generations=3, population_size=8
)


@pytest.fixture(scope="module")
def mini_artifact(tmp_path_factory):
    table = tabulate(
        space_for_layout("mini"), devices=("edge",), seed=3,
        recipe="front",
    )
    path = tmp_path_factory.mktemp("serve_table") / "mini_front"
    return save_artifact(table, path, layout="mini")


def replay_config(mini_artifact) -> ServeConfig:
    return ServeConfig(
        backend="serial", quiet=True, table=str(mini_artifact)
    )


def front_bytes(result) -> list:
    return [
        (p.arch.ops, p.arch.factors, p.latency_ms, p.accuracy)
        for p in result.front
    ]


class TestCoveredReplay:
    def test_covered_query_replays_identical_bytes(self, mini_artifact):
        query = FrontQuery(**MINI_QUERY_KW)
        live = SearchService(ServeConfig(backend="serial", quiet=True))
        replaying = SearchService(replay_config(mini_artifact))
        want = live.front(query)
        got = replaying.front(query)
        assert front_bytes(got) == front_bytes(want)
        assert got.num_evaluations == want.num_evaluations
        assert live.metrics.snapshot()["fronts"]["replayed"] == 0
        assert replaying.metrics.snapshot()["fronts"] == {
            "computed": 1, "warm_precomputed": 0, "replayed": 1,
            "restored": 0,
        }

    def test_replayed_front_encodes_the_live_bytes(self, mini_artifact):
        payload = dict(MINI_QUERY_KW)
        live = SearchService(ServeConfig(backend="serial", quiet=True))
        replaying = SearchService(replay_config(mini_artifact))
        body = replaying.resolve_bytes(payload)
        assert replaying.metrics.snapshot()["fronts"]["replayed"] == 1
        assert body == _json_bytes(replaying.resolve(payload))
        assert body == live.resolve_bytes(payload)

    def test_repeat_covered_query_hits_front_cache(self, mini_artifact):
        service = SearchService(replay_config(mini_artifact))
        query = FrontQuery(**MINI_QUERY_KW)
        first = service.front(query)
        second = service.front(query)
        assert front_bytes(first) == front_bytes(second)
        # Still one replay: the second answer came from the front cache.
        assert service.metrics.snapshot()["fronts"]["replayed"] == 1


class TestCoverageBoundaries:
    @pytest.fixture()
    def service(self, mini_artifact):
        return SearchService(replay_config(mini_artifact))

    def _assert_live(self, service, query):
        service.front(query)
        fronts = service.metrics.snapshot()["fronts"]
        assert fronts["computed"] == 1
        assert fronts["replayed"] == 0

    def test_seed_mismatch_falls_back_to_live(self, service):
        self._assert_live(
            service, FrontQuery(**{**MINI_QUERY_KW, "seed": 4})
        )

    def test_device_not_tabulated_falls_back_to_live(self, service):
        self._assert_live(
            service, FrontQuery(**{**MINI_QUERY_KW, "device": "gpu"})
        )

    def test_other_layout_falls_back_to_live(self, service):
        self._assert_live(
            service, FrontQuery(**{**MINI_QUERY_KW, "layout": "proxy"})
        )

    def test_search_recipe_artifact_never_replays_fronts(
        self, tmp_path, monkeypatch
    ):
        # A "search"-recipe table holds different columns than the
        # front recipe computes; serving from it would change bytes.
        table = tabulate(
            space_for_layout("mini"), devices=("edge",), seed=3,
            recipe="search",
        )
        path = save_artifact(table, tmp_path / "mini_search", layout="mini")
        service = SearchService(
            ServeConfig(backend="serial", quiet=True, table=str(path))
        )
        self._assert_live(service, FrontQuery(**MINI_QUERY_KW))


class TestStartupValidation:
    def test_bad_artifact_fails_at_startup_not_first_query(self, tmp_path):
        config = ServeConfig(
            backend="serial", quiet=True, table=str(tmp_path / "nowhere")
        )
        with pytest.raises(TabularArtifactError, match="not a tabular"):
            SearchService(config)

    def test_no_table_serves_live(self, serial_config, small_query):
        service = SearchService(serial_config)
        service.front(small_query)
        assert service.metrics.snapshot()["fronts"]["replayed"] == 0
