"""The SQL frontend: parsing, compilation, and end-to-end execution."""

import pytest

from repro.core.selection import SelectionPolicy
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.query import JoinAggregateQuery, SqlError, compile_sql, parse_sql
from repro.relalg import AnnotatedRelation, IntegerRing


RING = IntegerRing(32)


@pytest.fixture
def tables():
    r1 = AnnotatedRelation(
        ("person", "coinsurance", "state"),
        [("p1", 20, "NY"), ("p2", 50, "CA")],
        None,
        RING,
    )
    r2 = AnnotatedRelation(
        ("person", "disease", "cost"),
        [
            ("p1", "flu", 100),
            ("p1", "cold", 30),
            ("p2", "flu", 200),
            ("p3", "flu", 70),
        ],
        None,
        RING,
    )
    r3 = AnnotatedRelation(
        ("disease", "cls"),
        [("flu", "resp"), ("cold", "resp"), ("mal", "trop")],
        None,
        RING,
    )
    return {"r1": r1, "r2": r2, "r3": r3}


class TestParser:
    def test_basic_shape(self):
        p = parse_sql(
            "SELECT a, SUM(x) FROM t1, t2 WHERE t1.a = t2.a GROUP BY a"
        )
        assert [t for t in p.tables] == ["t1", "t2"]
        assert len(p.conditions) == 1
        assert [str(c) for c in p.group_by] == ["a"]

    def test_count_star(self):
        p = parse_sql("SELECT COUNT(*) FROM t")
        assert p.aggregate is None and p.group_by == []

    def test_arithmetic_expression(self):
        p = parse_sql("SELECT SUM(a * (100 - b) + 2) FROM t")
        assert p.aggregate[0] == "+"

    def test_in_and_comparisons(self):
        p = parse_sql(
            "SELECT COUNT(*) FROM t WHERE a IN (1, 'x') AND b >= 3 "
            "AND c <> 4"
        )
        ops = [c.op for c in p.conditions]
        assert ops == ["in", ">=", "!="]

    def test_case_insensitive_keywords(self):
        parse_sql("select count(*) from t where a = 1")

    def test_requires_aggregate(self):
        with pytest.raises(SqlError):
            parse_sql("SELECT a FROM t GROUP BY a")

    def test_select_list_must_match_group_by(self):
        with pytest.raises(SqlError):
            parse_sql("SELECT a, SUM(x) FROM t GROUP BY b")

    def test_trailing_garbage(self):
        # (``FROM t EXTRA`` is a table alias, so the junk must come
        # after a clause that cannot absorb a bare name.)
        with pytest.raises(SqlError):
            parse_sql("SELECT COUNT(*) FROM t WHERE a = 1 EXTRA")

    def test_tokenizer_rejects_junk(self):
        with pytest.raises(SqlError):
            parse_sql("SELECT COUNT(*) FROM t WHERE a = @")

    def test_negative_integer_literal(self):
        # Regression: '-' used to fail with "expected a literal".
        p = parse_sql("SELECT COUNT(*) FROM t WHERE t.c < -5")
        assert p.conditions[0].right == -5

    def test_negative_literal_in_in_list(self):
        p = parse_sql("SELECT COUNT(*) FROM t WHERE a IN (-1, 2, -3)")
        assert p.conditions[0].right == (-1, 2, -3)

    def test_dangling_minus_still_rejected(self):
        with pytest.raises(SqlError) as err:
            parse_sql("SELECT COUNT(*) FROM t WHERE a = -'x'")
        assert "after '-'" in str(err.value)

    def test_duplicate_from_table_rejected(self):
        # Regression: "FROM t1, t1" used to parse (and later join the
        # relation with itself under one name).
        with pytest.raises(SqlError) as err:
            parse_sql("SELECT COUNT(*) FROM t1, t1")
        assert "aliases" in str(err.value)


class TestCompilation:
    def test_example_11(self, tables):
        q = compile_sql(
            "SELECT cls, SUM(cost) FROM r1, r2, r3 "
            "WHERE r1.person = r2.person AND r2.disease = r3.disease "
            "GROUP BY cls",
            tables,
        )
        assert isinstance(q, JoinAggregateQuery)
        assert q.run_plain().to_dict() == {("resp",): 330}

    def test_secure_execution(self, tables):
        q = compile_sql(
            "SELECT cls, SUM(cost) FROM r1, r2, r3 "
            "WHERE r1.person = r2.person AND r2.disease = r3.disease "
            "GROUP BY cls",
            tables,
            owners={"r1": ALICE, "r2": BOB, "r3": ALICE},
        )
        engine = Engine(Context(Mode.SIMULATED, seed=1))
        result, _ = q.run_secure(engine)
        assert result.semantically_equal(q.run_plain())

    def test_selection_against_literal(self, tables):
        q = compile_sql(
            "SELECT SUM(cost) FROM r2 WHERE disease = 'flu'", tables
        )
        assert q.run_plain().to_dict() == {(): 370}

    def test_private_selection_keeps_size(self, tables):
        q = compile_sql(
            "SELECT COUNT(*) FROM r2 WHERE cost > 1000", tables
        )
        assert len(q.relations["r2"]) == 4  # dummies retained
        assert q.run_plain().to_dict() == {}

    def test_public_selection_shrinks(self, tables):
        q = compile_sql(
            "SELECT COUNT(*) FROM r2 WHERE disease = 'flu'",
            tables,
            selection_policy=SelectionPolicy.PUBLIC,
        )
        assert len(q.relations["r2"]) == 3

    def test_aggregate_expression(self, tables):
        q = compile_sql(
            "SELECT person, SUM(cost * 2 + 1) FROM r2 GROUP BY person",
            tables,
        )
        # p1: (100*2+1) + (30*2+1) = 262; p2: 401; p3: 141
        assert q.run_plain().to_dict() == {
            ("p1",): 262, ("p2",): 401, ("p3",): 141,
        }

    def test_transitive_join_unification(self, tables):
        # person equated across three conditions collapses to one attr
        q = compile_sql(
            "SELECT COUNT(*) FROM r1, r2 WHERE r1.person = r2.person",
            tables,
        )
        shared = set(q.relations["r1"].attributes) & set(
            q.relations["r2"].attributes
        )
        assert len(shared) == 1

    def test_ambiguous_column_rejected(self, tables):
        with pytest.raises(SqlError):
            compile_sql(
                "SELECT COUNT(*) FROM r1, r2 WHERE person = 'p1'", tables
            )

    def test_unknown_table_and_column(self, tables):
        with pytest.raises(SqlError):
            compile_sql("SELECT COUNT(*) FROM nope", tables)
        with pytest.raises(SqlError):
            compile_sql(
                "SELECT COUNT(*) FROM r1 WHERE r1.ghost = 1", tables
            )

    def test_cross_table_aggregate_rejected(self, tables):
        with pytest.raises(SqlError) as err:
            compile_sql(
                "SELECT SUM(cost * coinsurance) FROM r1, r2 "
                "WHERE r1.person = r2.person",
                tables,
            )
        assert "decompose" in str(err.value)

    def test_non_equality_column_join_rejected(self, tables):
        with pytest.raises(SqlError):
            compile_sql(
                "SELECT COUNT(*) FROM r1, r2 WHERE r1.person < r2.person",
                tables,
            )

    def test_count_query_all_annotations_one(self, tables):
        q = compile_sql(
            "SELECT COUNT(*) FROM r1, r2 WHERE r1.person = r2.person",
            tables,
        )
        assert q.run_plain().to_dict() == {(): 3}

    def test_projection_drops_unused_columns(self, tables):
        q = compile_sql(
            "SELECT cls, COUNT(*) FROM r2, r3 "
            "WHERE r2.disease = r3.disease GROUP BY cls",
            tables,
        )
        # cost and person are irrelevant; r2 keeps only the join attr
        assert len(q.relations["r2"].attributes) == 1

    def test_negative_literal_selection(self, tables):
        q = compile_sql(
            "SELECT SUM(cost) FROM r2 WHERE cost > -50", tables
        )
        assert q.run_plain().to_dict() == {(): 400}

    def test_bounded_policy_with_bounds(self, tables):
        q = compile_sql(
            "SELECT COUNT(*) FROM r2 WHERE disease = 'flu'",
            tables,
            selection_policy=SelectionPolicy.BOUNDED,
            selection_bounds={"r2": 3},
        )
        assert len(q.relations["r2"]) == 3
        assert q.run_plain().to_dict() == {(): 3}


class TestNameCollisions:
    def test_same_column_name_in_two_tables_not_equated(self):
        """Two distinct 'id' columns that are NOT joined must not merge
        into one attribute (that would create a spurious join)."""
        from repro.relalg import AnnotatedRelation, IntegerRing

        ring = IntegerRing(32)
        t1 = AnnotatedRelation(("id", "ref"), [(1, 9), (2, 8)], None, ring)
        t2 = AnnotatedRelation(("id", "v"), [(9, 5), (8, 6)], None, ring)
        q = compile_sql(
            "SELECT SUM(v) FROM t1, t2 WHERE t1.ref = t2.id",
            {"t1": t1, "t2": t2},
        )
        # join on ref=id only: both rows match -> 11
        assert q.run_plain().to_dict() == {(): 11}

    def test_three_way_transitive_equality(self):
        from repro.relalg import AnnotatedRelation, IntegerRing

        ring = IntegerRing(32)
        a = AnnotatedRelation(("x",), [(1,), (2,)], None, ring)
        b = AnnotatedRelation(("y",), [(1,), (3,)], None, ring)
        c = AnnotatedRelation(("z",), [(1,), (4,)], None, ring)
        q = compile_sql(
            "SELECT COUNT(*) FROM a, b, c "
            "WHERE a.x = b.y AND b.y = c.z",
            {"a": a, "b": b, "c": c},
        )
        assert q.run_plain().to_dict() == {(): 1}

    def test_group_by_join_attribute(self):
        from repro.relalg import AnnotatedRelation, IntegerRing

        ring = IntegerRing(32)
        t1 = AnnotatedRelation(("k", "w"), [(1, 2), (1, 3)], [5, 5], ring)
        t2 = AnnotatedRelation(("k",), [(1,)], None, ring)
        q = compile_sql(
            "SELECT t1.k, COUNT(*) FROM t1, t2 WHERE t1.k = t2.k "
            "GROUP BY t1.k",
            {"t1": t1, "t2": t2},
        )
        assert q.run_plain().to_dict() == {(1,): 2}


class TestAliases:
    def test_as_alias_parses(self):
        p = parse_sql("SELECT COUNT(*) FROM t AS a, u b, v")
        assert p.tables == ["a", "b", "v"]
        assert p.sources == {"a": "t", "b": "u", "v": "v"}

    def test_alias_is_effective_name_in_conditions(self):
        p = parse_sql(
            "SELECT COUNT(*) FROM t a, t b WHERE a.x = b.y"
        )
        assert p.tables == ["a", "b"]
        assert p.sources == {"a": "t", "b": "t"}

    def test_duplicate_alias_rejected(self):
        with pytest.raises(SqlError) as err:
            parse_sql("SELECT COUNT(*) FROM t a, u a")
        assert "aliases" in str(err.value)

    def test_alias_colliding_with_table_name_rejected(self):
        with pytest.raises(SqlError) as err:
            parse_sql("SELECT COUNT(*) FROM t, u t")
        assert "aliases" in str(err.value)

    def test_unknown_base_table_reported(self):
        with pytest.raises(SqlError) as err:
            compile_sql("SELECT COUNT(*) FROM nope n", {})
        assert "nope" in str(err.value)

    def test_aliased_single_table(self, tables):
        q = compile_sql(
            "SELECT SUM(cost) FROM r2 AS visits "
            "WHERE visits.disease = 'flu'",
            tables,
        )
        assert q.run_plain().to_dict() == {(): 370}

    def test_self_join_two_paths_plain(self):
        ring = IntegerRing(32)
        edges = AnnotatedRelation(
            ("src", "dst"),
            [(1, 2), (2, 3), (2, 4), (3, 4)],
            None,
            ring,
        )
        q = compile_sql(
            "SELECT COUNT(*) FROM edges a, edges b "
            "WHERE a.dst = b.src",
            {"edges": edges},
        )
        # 2-paths: 1-2-3, 1-2-4, 2-3-4.
        assert q.run_plain().to_dict() == {(): 3}

    def test_self_join_secure_matches_plain(self):
        ring = IntegerRing(32)
        edges = AnnotatedRelation(
            ("src", "dst"),
            [(1, 2), (2, 3), (2, 4), (3, 4)],
            None,
            ring,
        )
        q = compile_sql(
            "SELECT COUNT(*) FROM edges a, edges b "
            "WHERE a.dst = b.src",
            {"edges": edges},
            owners={"a": ALICE, "b": BOB},
        )
        engine = Engine(Context(Mode.SIMULATED, seed=1))
        result, _ = q.run_secure(engine)
        assert result.semantically_equal(q.run_plain())

    def test_self_join_group_by(self):
        ring = IntegerRing(32)
        edges = AnnotatedRelation(
            ("src", "dst"),
            [(1, 2), (2, 3), (2, 4), (3, 4)],
            None,
            ring,
        )
        q = compile_sql(
            "SELECT a.src, COUNT(*) FROM edges a, edges b "
            "WHERE a.dst = b.src GROUP BY a.src",
            {"edges": edges},
        )
        assert q.run_plain().to_dict() == {(1,): 2, (2,): 1}
