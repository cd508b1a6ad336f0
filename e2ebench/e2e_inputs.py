"""Seeded inputs for the end-to-end benchmark.

Every workload's graph-API calls are generated here, before anything is
timed, by driving an engine-less :class:`~repro.PropertyGraph` replica
and recording the concrete calls it accepted.  Vertex and edge ids are
assigned by counters, so a second graph fed the same call list from an
empty start reproduces every id: the benchmark replays the recorded
prefix to build the measured graph, then replays the recorded units
against the engine.

Inserts are balanced by FIFO deletes in fixed-composition decks, so the
graph stays level (vertex counts return exactly to their start value at
every deck boundary; edge counts hover around a steady state) and the
workload is stationary over a run of any length.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro import PropertyGraph

LANGS = ("en", "de", "fr", "hu", "es")
TAG_NAMES = (
    "graphs", "databases", "cypher", "rete", "ivm",
    "benchmarks", "papers", "python", "music", "travel",
)

# --- queries -------------------------------------------------------------------

IS1_PROFILE = (
    "MATCH (p:Person) WHERE p.name = $name "
    "RETURN p.name AS name, p.city AS city"
)
IC1_FOF = (
    "MATCH (p:Person)-[:KNOWS*1..2]->(f:Person) "
    "WHERE p.name = $name AND p <> f "
    "RETURN DISTINCT f.name AS friend"
)
SNB_CORES = (
    # IS3: a person's friends
    "MATCH (p:Person)-[:KNOWS]->(f:Person) "
    "RETURN p.name AS person, f.name AS friend",
    # IC2-core: recent messages by friends
    "MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) "
    "WHERE m.recent = TRUE "
    "RETURN f.name AS friend, m.content AS content",
    # IC4-core: tags on posts created by friends
    "MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)"
    "-[:HAS_TAG]->(t:Tag) "
    "RETURN t.name AS tag, count(*) AS posts",
    # IC5-core: forums whose members created contained posts
    "MATCH (f:Forum)-[:HAS_MEMBER]->(pe:Person)"
    "<-[:HAS_CREATOR]-(po:Post)<-[:CONTAINER_OF]-(f) "
    "RETURN f.title AS forum, count(*) AS posts",
    # IC7-core: who likes a person's posts
    "MATCH (fan:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(auth:Person) "
    "RETURN auth.name AS author, count(*) AS likes",
    # IC8-core: direct replies to a person's posts
    "MATCH (c:Comment)-[:REPLY_OF]->(m:Post)-[:HAS_CREATOR]->(p:Person) "
    "RETURN p.name AS author, count(*) AS replies",
    # the paper's running example on the SNB schema (transitive)
    "MATCH t = (m:Post)<-[:REPLY_OF*]-(c:Comment) "
    "WHERE m.lang = c.lang "
    "RETURN m, t",
)
#: the residual read class: an aggregate the catalog serves as residual
#: work over the shared KNOWS subplan
FRIEND_COUNTS = (
    "MATCH (p:Person)-[:KNOWS]->(f:Person) "
    "RETURN p.name AS person, count(*) AS friends"
)

COUNTRIES = ("cn", "in", "de", "us", "br", "jp")
GRID_COUNTRIES = 4
GRID_SCORES = 16
PARAM_QUERY = (
    "MATCH (p:Person) WHERE p.country = $country AND p.score = $score RETURN p"
)
CONST_QUERIES = tuple(
    f"MATCH (p:Post) WHERE p.lang = '{lang}' RETURN p" for lang in ("en", "de", "hu")
)
JOIN_QUERY = "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b"
LIKES_QUERY = "MATCH (a:Person)-[:LIKES]->(p:Post) WHERE p.lang = 'en' RETURN a, p"
#: the windowed residual read class: an aggregate served as residual work
#: over the LIKES view's maintained state
LIKES_BY_COUNTRY = (
    "MATCH (a:Person)-[:LIKES]->(p:Post) WHERE p.lang = 'en' "
    "RETURN a.country AS country, count(*) AS likes"
)


def pattern_query(index: int, city: int, lang: str) -> str:
    """A 'new pattern' for view churn: distinct text, constant filters."""
    return (
        "MATCH (p:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(a:Person) "
        f"WHERE p.city = 'city-{city}' AND m.lang = '{lang}' "
        f"RETURN a.name AS author_{index}, count(*) AS likes"
    )


# --- recording replica ---------------------------------------------------------


class Recorder:
    """Apply graph calls to an engine-less replica and keep them.

    ``calls`` collects ``(method_name, args)`` pairs; :meth:`take` cuts
    the pending calls into one unit together with the number of graph
    events they raised (counted by a listener on the replica).
    """

    def __init__(self) -> None:
        self.graph = PropertyGraph()
        self.calls: list[tuple[str, tuple]] = []
        self.events = 0
        self.graph.subscribe(self._count)

    def _count(self, _event) -> None:
        self.events += 1

    def call(self, name: str, *args):
        self.calls.append((name, args))
        return getattr(self.graph, name)(*args)

    def take(self) -> tuple[list[tuple[str, tuple]], int]:
        calls, events = self.calls, self.events
        self.calls, self.events = [], 0
        return calls, events


def replay(graph: PropertyGraph, calls) -> None:
    """Apply recorded calls to *graph*."""
    for name, args in calls:
        getattr(graph, name)(*args)


class LiveSet:
    """A list with O(1) random choice and O(1) removal by value."""

    def __init__(self) -> None:
        self.items: list[int] = []
        self.index: dict[int, int] = {}

    def add(self, item: int) -> None:
        self.index[item] = len(self.items)
        self.items.append(item)

    def remove(self, item: int) -> None:
        position = self.index.pop(item)
        last = self.items.pop()
        if position < len(self.items):
            self.items[position] = last
            self.index[last] = position

    def choice(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]


@dataclass
class Unit:
    """One write unit: the calls of one transaction (or window)."""

    kind: str
    calls: list
    events: int


# --- SNB social network ----------------------------------------------------------


@dataclass
class SnbSizes:
    persons: int = 120
    forums: int = 8
    posts: int = 96
    comments: int = 384
    knows_degree: int = 4
    likes_per_person: int = 3
    #: whole decks of churn replayed into the graph before views register,
    #: so the measured phase starts in the FIFO steady state
    warmup_decks: int = 60


#: one deck of interactive write units; every deck deletes exactly the
#: vertices it inserts, so vertex counts are level at every deck boundary
#: (edge counts settle into a FIFO steady state during the warmup)
SNB_DECK = (
    ("add_comment", 10),
    ("del_comment", 10),
    # post deletions also drop likes, so fewer FIFO unlikes than likes
    # keep the LIKES count level
    ("add_like", 6),
    ("del_like", 3),
    ("add_post", 2),
    ("del_post", 2),
    ("lang_edit", 4),
    ("add_member", 1),
    ("del_member", 1),
)
DECK_SIZE = sum(weight for _, weight in SNB_DECK)


class SnbGenerator:
    """The SNB-interactive update mix as recorded graph calls."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sizes = SnbSizes()
        self.rec = Recorder()
        self.persons: list[int] = []
        self.forums: list[int] = []
        self.tags: list[int] = []
        self.posts = LiveSet()
        self.messages = LiveSet()
        self.lang_of: dict[int, str] = {}
        self.comment_fifo: deque[int] = deque()
        self.post_fifo: deque[int] = deque()
        self.like_fifo: deque[int] = deque()
        self.member_fifo: deque[int] = deque()
        self._messages_made = 0
        self._dealer = self._deal()
        self._build()

    # graph construction ---------------------------------------------------

    def _build(self) -> None:
        rng, rec, sizes = self.rng, self.rec, self.sizes
        for name in TAG_NAMES:
            self.tags.append(rec.call("add_vertex", ["Tag"], {"name": name}))
        for index in range(sizes.persons):
            self.persons.append(
                rec.call(
                    "add_vertex",
                    ["Person"],
                    {"name": f"person-{index}", "city": f"city-{index % 5}"},
                )
            )
        # KNOWS as a union of random permutations: every person has the
        # same in- and out-degree, so friend-of-friend neighbourhoods (and
        # the transitive views over them) vary little between seeds
        for _ in range(sizes.knows_degree):
            friends = list(self.persons)
            rng.shuffle(friends)
            for person, friend in zip(self.persons, friends):
                if friend != person:
                    rec.call("add_edge", person, friend, "KNOWS")
        for index in range(sizes.forums):
            forum = rec.call("add_vertex", ["Forum"], {"title": f"forum-{index}"})
            self.forums.append(forum)
            for member in rng.sample(self.persons, sizes.persons // sizes.forums):
                self.member_fifo.append(rec.call("add_edge", forum, member, "HAS_MEMBER"))
        for _ in range(sizes.posts):
            self._add_post()
        for _ in range(sizes.comments):
            self._add_comment()
        for person in self.persons:
            for _ in range(sizes.likes_per_person):
                self._add_like(person)
        prefix, _ = rec.take()
        for unit in self.deck_units(sizes.warmup_decks * DECK_SIZE):
            prefix.extend(unit.calls)
        #: every call that built the graph: construction plus FIFO warmup
        self.prefix = prefix

    def _message_props(self, label: str, lang: str) -> dict:
        self._messages_made += 1
        props = {"lang": lang, "content": f"{label.lower()}-{self._messages_made}"}
        if label == "Post":
            props["recent"] = self.rng.random() < 0.5
        return props

    def _add_post(self) -> None:
        rng, rec = self.rng, self.rec
        lang = rng.choice(LANGS)
        post = rec.call("add_vertex", ["Post"], self._message_props("Post", lang))
        rec.call("add_edge", rng.choice(self.forums), post, "CONTAINER_OF")
        rec.call("add_edge", post, rng.choice(self.persons), "HAS_CREATOR")
        for tag in rng.sample(self.tags, rng.randint(1, 3)):
            rec.call("add_edge", post, tag, "HAS_TAG")
        self.posts.add(post)
        self.messages.add(post)
        self.lang_of[post] = lang
        self.post_fifo.append(post)

    def _add_comment(self) -> None:
        rng, rec = self.rng, self.rec
        parent = self.messages.choice(rng)
        parent_lang = self.lang_of[parent]
        lang = parent_lang if rng.random() < 0.7 else rng.choice(LANGS)
        comment = rec.call(
            "add_vertex", ["Comment"], self._message_props("Comment", lang)
        )
        rec.call("add_edge", comment, parent, "REPLY_OF")
        rec.call("add_edge", comment, rng.choice(self.persons), "HAS_CREATOR")
        self.messages.add(comment)
        self.lang_of[comment] = lang
        self.comment_fifo.append(comment)

    def _add_like(self, person: int | None = None) -> None:
        rng = self.rng
        if person is None:
            person = rng.choice(self.persons)
        like = self.rec.call("add_edge", person, self.posts.choice(rng), "LIKES")
        self.like_fifo.append(like)

    def _delete_message(self, fifo: deque[int]) -> None:
        message = fifo.popleft()
        self.rec.call("remove_vertex", message, True)
        self.messages.remove(message)
        if message in self.posts.index:
            self.posts.remove(message)
        del self.lang_of[message]

    def _pop_live_edge(self, fifo: deque[int]) -> int:
        graph = self.rec.graph
        while True:
            edge = fifo.popleft()
            if graph.has_edge(edge):
                return edge

    # update units ------------------------------------------------------------

    def unit(self, kind: str) -> Unit:
        rng, rec = self.rng, self.rec
        if kind == "add_comment":
            self._add_comment()
        elif kind == "del_comment":
            self._delete_message(self.comment_fifo)
        elif kind == "add_post":
            self._add_post()
        elif kind == "del_post":
            self._delete_message(self.post_fifo)
        elif kind == "add_like":
            self._add_like()
        elif kind == "del_like":
            rec.call("remove_edge", self._pop_live_edge(self.like_fifo))
        elif kind == "lang_edit":
            message = self.messages.choice(rng)
            lang = rng.choice([l for l in LANGS if l != self.lang_of[message]])
            self.lang_of[message] = lang
            rec.call("set_vertex_property", message, "lang", lang)
        elif kind == "add_member":
            forum, person = rng.choice(self.forums), rng.choice(self.persons)
            self.member_fifo.append(rec.call("add_edge", forum, person, "HAS_MEMBER"))
        elif kind == "del_member":
            rec.call("remove_edge", self._pop_live_edge(self.member_fifo))
        else:
            raise ValueError(f"unknown SNB unit {kind!r}")
        calls, events = rec.take()
        return Unit(kind, calls, events)

    def deck_units(self, count: int) -> list[Unit]:
        """The next *count* units dealt from shuffled fixed-composition
        decks (a deck left open continues in the next call)."""
        return [self.unit(next(self._dealer)) for _ in range(count)]

    def _deal(self):
        deck = [kind for kind, weight in SNB_DECK for _ in range(weight)]
        while True:
            self.rng.shuffle(deck)
            yield from deck


# --- windowed churn (person grid) ------------------------------------------------


@dataclass
class GridSizes:
    people: int = 320
    posts: int = 160


#: one window's composition: every window inserts and FIFO-deletes the
#: same number of KNOWS edges, so the graph is level at window boundaries
GRID_WINDOW = (
    ("score", 16),
    ("country", 3),
    ("lang", 5),
    ("knows_add", 3),
    ("knows_del", 3),
)
GRID_LANGS = ("en", "de", "hu")


class GridGenerator:
    """Windows of property churn and KNOWS churn over a Person/Post graph."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sizes = GridSizes()
        self.rec = Recorder()
        rng, rec = self.rng, self.rec
        self.country: dict[int, int] = {}
        self.score: dict[int, int] = {}
        self.lang: dict[int, str] = {}
        self.people: list[int] = []
        for index in range(self.sizes.people):
            country, score = index % GRID_COUNTRIES, rng.randrange(GRID_SCORES)
            person = rec.call(
                "add_vertex",
                ["Person"],
                {"country": COUNTRIES[country], "score": score},
            )
            self.people.append(person)
            self.country[person], self.score[person] = country, score
        self.posts: list[int] = []
        for _ in range(self.sizes.posts):
            lang = rng.choice(GRID_LANGS)
            post = rec.call("add_vertex", ["Post"], {"lang": lang})
            self.posts.append(post)
            self.lang[post] = lang
        self.knows_fifo: deque[int] = deque()
        for person in self.people:
            self.knows_fifo.append(
                rec.call("add_edge", person, rng.choice(self.people), "KNOWS")
            )
            rec.call("add_edge", person, rng.choice(self.posts), "LIKES")
        self.prefix, _ = rec.take()

    def _op(self, kind: str) -> None:
        rng, rec = self.rng, self.rec
        if kind == "score":
            person = rng.choice(self.people)
            score = rng.randrange(GRID_SCORES - 1)
            score += score >= self.score[person]  # never the current value
            self.score[person] = score
            rec.call("set_vertex_property", person, "score", score)
        elif kind == "country":
            person = rng.choice(self.people)
            country = rng.randrange(GRID_COUNTRIES - 1)
            country += country >= self.country[person]
            self.country[person] = country
            rec.call("set_vertex_property", person, "country", COUNTRIES[country])
        elif kind == "lang":
            post = rng.choice(self.posts)
            lang = rng.choice([l for l in GRID_LANGS if l != self.lang[post]])
            self.lang[post] = lang
            rec.call("set_vertex_property", post, "lang", lang)
        elif kind == "knows_add":
            source, target = rng.choice(self.people), rng.choice(self.people)
            self.knows_fifo.append(rec.call("add_edge", source, target, "KNOWS"))
        elif kind == "knows_del":
            rec.call("remove_edge", self.knows_fifo.popleft())
        else:
            raise ValueError(f"unknown grid op {kind!r}")

    def window(self) -> Unit:
        ops = [kind for kind, weight in GRID_WINDOW for _ in range(weight)]
        self.rng.shuffle(ops)
        for kind in ops:
            self._op(kind)
        calls, events = self.rec.take()
        return Unit("window", calls, events)
