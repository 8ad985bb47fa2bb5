"""On-disk formats: strict JSON configs and byte-stable CSV tables.

JSON syntax problems raise ParseError with the offending line and column;
schema problems (unknown or missing keys, wrong types) raise ConfigError
naming the JSON path. Each CSV file is one ``Table``: its columns are the
fields of a row type, each with a codec (fixed six-decimal floats, the
literal ``NA`` for absent values), so a write/read/write round trip is
byte-identical. ``read_table`` rejects, with ``path:line``, any file that
is not UTF-8, has a wrong header or field count, holds a cell its column
cannot parse, a non-finite number or a value outside a closed vocabulary,
or whose rows do not strictly increase in the table's key. Tables stream:
``read_table`` yields rows as it reads, ``frames_from_rows`` yields each
whole frame, every camera's rows of it, once its rows have passed, and
``write_table`` writes a bounded chunk of lines at a time.
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import chain, islice, tee
from operator import attrgetter, is_not, itemgetter, le
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, get_type_hints

from .errors import CamchainError, ConfigError, MalformedInputError, ParseError
from .geometry import Point2, Polygon, RoadFrame, Zone
from .handover import EventKind, HandoverEvent, MatcherConfig, MatchStrategy
from .kinematics import Calibration, MotionStatus
from .simulator import (
    NoiseConfig,
    Regime,
    ScenarioConfig,
    ScriptedVehicle,
    TrueHandover,
    TruthObs,
    TruthTrack,
)
from .sync import StreamUpdate
from .topology import CameraNode, EdgeDef, TopologyGraph
from .tracks import TrackState, TrajRow

try:
    from operator import call as _call  # Python 3.11+
except ImportError:  # Python 3.10
    def _call(parse, cell):
        return parse(cell)


NA = "NA"


# -- JSON ----------------------------------------------------------------------


def _decode(
    raw: bytes, path: str | Path, error: type[CamchainError], line: int = 1, at: int = 0
) -> str:
    """``raw`` as UTF-8 text; ``raw`` starts at byte ``at``, on line ``line``
    (counted in newlines), of ``path``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line += raw.count(b"\n", 0, e.start)
        raise error(f"{path}:{line}: not UTF-8 ({e.reason} at byte {at + e.start})") from None


def load_json(path: str | Path):
    text = _decode(Path(path).read_bytes(), path, ParseError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def dump_json(path: str | Path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _expect_dict(v, ctx: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(v).__name__}")
    return v


def _check_keys(d: dict, required: Sequence[str], optional: Sequence[str], ctx: str) -> None:
    extra = set(d) - set(required) - set(optional)
    if extra:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(extra)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{ctx}: missing key(s) {sorted(missing)}")


def _num(v, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{ctx}: expected a finite number, got {v!r}")
    return float(v)


def _int(v, ctx: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{ctx}: expected an integer, got {v!r}")
    return v


def _str(v, ctx: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{ctx}: expected a string, got {v!r}")
    return v


def _list(v, ctx: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{ctx}: expected a list, got {type(v).__name__}")
    return v


def _pair(v, ctx: str) -> tuple[float, float]:
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{ctx}: expected a pair of numbers, got {v!r}")
    return _num(v[0], f"{ctx}[0]"), _num(v[1], f"{ctx}[1]")


def _point(v, ctx: str) -> Point2:
    return Point2(*_pair(v, ctx))


def _polygon(v, ctx: str) -> Polygon:
    if not isinstance(v, list):
        raise ConfigError(f"{ctx}: expected a vertex list, got {type(v).__name__}")
    return Polygon(tuple(_point(p, f"{ctx}[{i}]") for i, p in enumerate(v)))


def _frame(v, ctx: str) -> RoadFrame:
    d = _expect_dict(v, ctx)
    _check_keys(d, ["origin", "axis", "width"], ["y_split"], ctx)
    return RoadFrame(
        origin=_point(d["origin"], f"{ctx}.origin"),
        axis=_point(d["axis"], f"{ctx}.axis"),
        width=_num(d["width"], f"{ctx}.width"),
        y_split=_num(d.get("y_split", 0.0), f"{ctx}.y_split"),
    )


def _frame_to_list(fr: RoadFrame) -> dict:
    return {
        "origin": [fr.origin.x, fr.origin.y],
        "axis": [fr.axis.x, fr.axis.y],
        "width": fr.width,
        "y_split": fr.y_split,
    }


def matcher_to_dict(m: MatcherConfig) -> dict:
    return _dataclass_to_dict(m)


def matcher_from_dict(obj, ctx: str = "matcher") -> MatcherConfig:
    kw = dict(_fields_from_dict(obj, MatcherConfig, ctx))
    if "strategy" in kw:
        try:
            kw["strategy"] = MatchStrategy(kw["strategy"])
        except ValueError:
            names = ", ".join(s.value for s in MatchStrategy)
            raise ConfigError(
                f"{ctx}.strategy: {kw['strategy']!r} is not one of {names}"
            ) from None
    return MatcherConfig(**kw)


def topology_to_dict(topo: TopologyGraph, matcher: Optional[MatcherConfig] = None) -> dict:
    out = {
        "cameras": [
            {
                "id": n.id,
                "fov": [[p.x, p.y] for p in n.fov.vertices],
                "m_per_px": n.calibration.m_per_px,
                "frame_dt": n.calibration.frame_dt,
                "frame": _frame_to_list(n.frame),
            }
            for n in topo.nodes
        ],
        "edges": [
            {
                "upstream": e.upstream,
                "downstream": e.downstream,
                "overlap": [[p.x, p.y] for p in e.overlap.vertices],
                "frame": _frame_to_list(e.frame),
            }
            for e in topo.edges
        ],
    }
    if matcher is not None:
        out["matcher"] = matcher_to_dict(matcher)
    return out


def topology_from_dict(obj) -> TopologyGraph:
    return _topology_and_matcher(obj)[0]


def _topology_and_matcher(obj) -> tuple[TopologyGraph, MatcherConfig]:
    """The graph and the matcher section (defaults when absent) of a
    topology object; the matcher is checked whichever of them is wanted."""
    d = _expect_dict(obj, "topology")
    _check_keys(d, ["cameras", "edges"], ["matcher"], "topology")
    matcher = (
        matcher_from_dict(d["matcher"], "topology.matcher") if "matcher" in d
        else MatcherConfig()
    )
    if not isinstance(d["cameras"], list) or not isinstance(d["edges"], list):
        raise ConfigError("topology: 'cameras' and 'edges' must be lists")
    nodes = []
    for i, c in enumerate(d["cameras"]):
        ctx = f"topology.cameras[{i}]"
        cd = _expect_dict(c, ctx)
        _check_keys(cd, ["id", "fov", "m_per_px", "frame_dt", "frame"], [], ctx)
        nodes.append(
            CameraNode(
                id=_int(cd["id"], f"{ctx}.id"),
                fov=_polygon(cd["fov"], f"{ctx}.fov"),
                calibration=Calibration(
                    m_per_px=_num(cd["m_per_px"], f"{ctx}.m_per_px"),
                    frame_dt=_num(cd["frame_dt"], f"{ctx}.frame_dt"),
                ),
                frame=_frame(cd["frame"], f"{ctx}.frame"),
            )
        )
    edges = []
    for i, e in enumerate(d["edges"]):
        ctx = f"topology.edges[{i}]"
        ed = _expect_dict(e, ctx)
        _check_keys(ed, ["upstream", "downstream", "overlap", "frame"], [], ctx)
        edges.append(
            EdgeDef(
                upstream=_int(ed["upstream"], f"{ctx}.upstream"),
                downstream=_int(ed["downstream"], f"{ctx}.downstream"),
                overlap=_polygon(ed["overlap"], f"{ctx}.overlap"),
                frame=_frame(ed["frame"], f"{ctx}.frame"),
            )
        )
    return TopologyGraph(nodes=tuple(nodes), edges=tuple(edges)), matcher


def parse_topology(path: str | Path) -> tuple[TopologyGraph, MatcherConfig]:
    """Load a topology file; a missing matcher section means defaults."""
    return _topology_and_matcher(load_json(path))


# checks of a declared scalar type; they return the value converted
_SCALAR_CHECKS = {
    float: _num,
    int: _int,
    str: _str,
    Optional[float]: lambda v, ctx: None if v is None else _num(v, ctx),
}


def _fields_from_dict(obj, cls: type, ctx: str) -> dict:
    """Check an object's keys against the fields of dataclass ``cls`` and
    each scalar against its declared type; returns the object unconverted."""
    d = _expect_dict(obj, ctx)
    fields = dataclasses.fields(cls)
    required = [
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    _check_keys(d, required, [f.name for f in fields], ctx)
    hints = get_type_hints(cls)
    for key, val in d.items():
        if hints[key] in _SCALAR_CHECKS:
            _SCALAR_CHECKS[hints[key]](val, f"{ctx}.{key}")
    return d


def _dataclass_to_dict(obj) -> dict:
    # through JSON, so that tuples come back as lists and enums as their values
    return json.loads(json.dumps(dataclasses.asdict(obj), default=attrgetter("value")))


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return _dataclass_to_dict(cfg)


def scenario_from_dict(obj) -> ScenarioConfig:
    d = _fields_from_dict(obj, ScenarioConfig, "scenario")
    kw = dict(d)
    if "regime" in d and d["regime"] not in [r.value for r in Regime]:
        raise ConfigError(f"scenario.regime: unknown regime {d['regime']!r}")
    if "noise" in d:
        kw["noise"] = NoiseConfig(**_fields_from_dict(d["noise"], NoiseConfig, "scenario.noise"))
    if "scripted_vehicles" in d:
        ctx = "scenario.scripted_vehicles"
        kw["scripted_vehicles"] = tuple(
            ScriptedVehicle(**_fields_from_dict(v, ScriptedVehicle, f"{ctx}[{i}]"))
            for i, v in enumerate(_list(d["scripted_vehicles"], ctx))
        )
    if d.get("wave_zone") is not None:
        kw["wave_zone"] = _pair(d["wave_zone"], "scenario.wave_zone")
    if "wave_windows" in d:
        ctx = "scenario.wave_windows"
        kw["wave_windows"] = tuple(
            _pair(w, f"{ctx}[{i}]") for i, w in enumerate(_list(d["wave_windows"], ctx))
        )
    try:
        return ScenarioConfig(**kw)
    except TypeError as e:
        raise ConfigError(f"scenario: {e}") from e


_META_TYPES = {
    "name": str, "seed": int, "frame_count": int,
    "frame_rate": float, "n_cameras": int, "duration_s": float,
}


def meta_from_dict(obj) -> dict:
    d = _expect_dict(obj, "meta")
    _check_keys(d, list(_META_TYPES), [], "meta")
    meta = {k: _SCALAR_CHECKS[t](d[k], f"meta.{k}") for k, t in _META_TYPES.items()}
    if meta["frame_rate"] <= 0.0:
        raise ConfigError(f"meta.frame_rate: must be > 0, got {meta['frame_rate']!r}")
    if meta["frame_count"] < 0:
        raise ConfigError(f"meta.frame_count: must be >= 0, got {meta['frame_count']!r}")
    return meta


# -- CSV -----------------------------------------------------------------------


def _optional(parse: Callable[[str], object]) -> Callable[[str], object]:
    return lambda s: None if s == NA else parse(s)


class Codec(NamedTuple):
    """How the cells of one column turn into values and back."""

    parse: Callable[[str], object]  # raises ValueError or KeyError on a bad cell
    fmt: str  # %-conversion of a present value; None is written as NA
    what: str  # noun for the "bad <what>" message
    finite: bool = False  # parsed numbers must be finite
    optional: bool = False


# One codec per declared field type. Integers and text print with %s, which
# is str(); floats print at six decimals and must be finite.
_CODECS = {
    int: Codec(int, "%s", "integer"),
    float: Codec(float, "%.6f", "number", finite=True),
    str: Codec(str, "%s", "text"),
    Optional[int]: Codec(_optional(int), "%s", "integer", optional=True),
    Optional[float]: Codec(_optional(float), "%.6f", "number", finite=True, optional=True),
    Optional[str]: Codec(_optional(str), "%s", "text", optional=True),
}


def _na_formatter(fmts: list[str]) -> Callable[[tuple], str]:
    """The line of a row whose columns may hold None, which is written as NA.

    Each pattern of None cells gets its own template, built once, so that
    every row is formatted by a single ``%``. In a template a None column
    is ``NA%.0s``: the literal NA, then a conversion that prints nothing.
    """
    full = ",".join(fmts)
    nones = (None,) * len(fmts)
    templates: dict[bytes, str] = {}

    def line(r: tuple) -> str:
        if None not in r:
            return full % r
        present = bytes(map(is_not, r, nones))
        template = templates.get(present)
        if template is None:
            template = templates[present] = ",".join(
                f if p else NA + "%.0s" for f, p in zip(fmts, present)
            )
        return template % r

    return line


class Table:
    """One CSV file: a column per field of ``row``, each with its codec.

    Rows are written sorted by ``key`` and read back only if ``key``
    strictly increases down the file; a table without a key keeps its
    writer's order. ``vocab`` closes text columns to an enum's values.
    """

    def __init__(
        self, row: type, key: Sequence[str] = (), vocab: Optional[dict[str, type]] = None
    ) -> None:
        if issubclass(row, tuple):
            self.header = list(row._fields)
            self.make, self.astuple = row._make, None
        else:
            self.header = [f.name for f in dataclasses.fields(row)]
            self.make = lambda values: row(*values)
            self.astuple = attrgetter(*self.header)
        hints = get_type_hints(row)
        self.codecs = [_CODECS[hints[name]] for name in self.header]
        for name, enum in (vocab or {}).items():
            # a lookup that raises KeyError on any cell outside the vocabulary
            i = self.header.index(name)
            cells = {m.value: m.value for m in enum}
            if self.codecs[i].optional:
                cells[NA] = None
            self.codecs[i] = self.codecs[i]._replace(parse=cells.__getitem__, what="value")
        self.parsers = [c.parse for c in self.codecs]
        floats = [i for i, c in enumerate(self.codecs) if c.finite]
        # the float values of a parsed row as a tuple, or None if it has none
        if len(floats) == 1:  # itemgetter of one index returns a bare value
            self.floats = lambda values: (values[floats[0]],)
        else:
            self.floats = itemgetter(*floats) if floats else None
        fmts = [c.fmt for c in self.codecs]
        # the CSV line of a row given as a tuple of column values
        if any(c.optional for c in self.codecs):
            self.format = _na_formatter(fmts)
        else:
            self.format = ",".join(fmts).__mod__
        self.key = tuple(key)
        self.key_columns = [self.header.index(name) for name in key]
        # the key of a row given as a tuple or list of column values
        self.sort_key = itemgetter(*self.key_columns) if key else None

    def fault(self, cells: list[str]) -> str:
        """Why a split line is not a row of this table."""
        if len(cells) != len(self.header):
            return f"expected {len(self.header)} fields, got {len(cells)}"
        for name, codec, cell in zip(self.header, self.codecs, cells):
            try:
                v = codec.parse(cell)
                good = not codec.finite or v is None or math.isfinite(v)
            except (ValueError, KeyError):
                good = False
            if not good:
                return f"bad {codec.what} {cell!r} in column {name}"
        return "unreadable row"


_CHUNK_ROWS = 256  # write_table formats and writes this many lines at a time


def write_table(path: str | Path, table: Table, rows: Iterable) -> int:
    """Write ``rows`` under the table's header; returns the row count.

    Rows are instances of the table's row type; a table whose row type is
    a NamedTuple also takes plain tuples in column order. Lines are written
    a bounded chunk at a time, never joined into one body.
    """
    if table.astuple is not None:
        rows = map(table.astuple, rows)
    if table.sort_key is not None:
        rows = list(rows)
        # Rows already in key order cost one pass that holds one key at a
        # time. Others are sorted stably on one key column at a time, last
        # column first, which keys on values the rows hold: no key tuple
        # per row is built.
        keys, following = tee(map(table.sort_key, rows))
        next(following, None)
        if not all(map(le, keys, following)):
            for i in reversed(table.key_columns):
                rows.sort(key=itemgetter(i))
    lines = map(table.format, rows)
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(table.header) + "\n")
        while chunk := list(islice(lines, _CHUNK_ROWS)):
            f.write("\n".join(chunk) + "\n")
            count += len(chunk)
    return count


_BLOCK_BYTES = 1 << 14  # read_table decodes about this much of a file at a time


def _text_blocks(path: str | Path) -> Iterator[str]:
    """A UTF-8 file's text in blocks that each end at a ``b"\\n"`` (or at
    the end of the file), so that splitting each block with
    ``str.splitlines`` gives the lines of the whole text. A UTF-8 fault is
    raised once the text before its line has been yielded; it names the
    line, counted in newlines, and the byte offset in the file.
    """
    with open(path, "rb") as f:
        at = newlines = 0
        while block := f.read(_BLOCK_BYTES) + f.readline():
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as e:
                # the lines before the faulty one go first, so that a fault
                # in one of them is reported; then _decode raises on the rest
                start = block.rfind(b"\n", 0, e.start) + 1
                yield block[:start].decode("utf-8")
                line = newlines + block.count(b"\n", 0, start) + 1
                _decode(block[start:], path, MalformedInputError, line, at + start)
            yield text
            newlines += block.count(b"\n")
            at += len(block)


def read_table(path: str | Path, table: Table) -> Iterator:
    """Yield the rows of the file, each data line parsed and checked as it
    is read; the first faulty line raises MalformedInputError naming
    ``path:line``. Blank lines are skipped but counted, and lines are
    numbered as ``str.splitlines`` splits the whole decoded file.

    A consumer that finds a fault in the row just yielded can throw a
    MalformedInputError into the generator; it comes back out prefixed
    with that row's ``path:line``.
    """
    lines = chain.from_iterable(map(str.splitlines, _text_blocks(path)))
    header = next(lines, None)
    if header is None:
        raise MalformedInputError(f"{path}: empty file")
    if header.split(",") != table.header:
        raise MalformedInputError(
            f"{path}:1: bad header {header!r}, expected {','.join(table.header)!r}"
        )
    parsers, floats, make, key_of = table.parsers, table.floats, table.make, table.sort_key
    width = len(parsers)
    prev = None
    for line_no, line in enumerate(lines, 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedInputError(f"{path}:{line_no}: {table.fault(cells)}")
        try:
            values = list(map(_call, parsers, cells))
        except (ValueError, KeyError):
            raise MalformedInputError(f"{path}:{line_no}: {table.fault(cells)}") from None
        # filter(None, ...) drops None and 0.0, both of which are fine
        if floats is not None and not all(map(math.isfinite, filter(None, floats(values)))):
            raise MalformedInputError(f"{path}:{line_no}: {table.fault(cells)}")
        if key_of is not None:
            key = key_of(values)
            if prev is not None and not prev < key:
                raise MalformedInputError(
                    f"{path}:{line_no}: rows not sorted by ({', '.join(table.key)}) at {key}"
                )
            prev = key
        try:
            yield make(values)
        except MalformedInputError as e:
            raise MalformedInputError(f"{path}:{line_no}: {e}") from None


class EventRow(NamedTuple):
    kind: str
    frame_index: int
    t: float
    camera_id: int
    local_id: int
    global_id: int
    edge_up: Optional[int]
    edge_down: Optional[int]
    zone: Optional[str]
    y_rel: Optional[float]
    age: Optional[float]
    residual: Optional[float]


_OBS_KEY = ("frame_index", "camera_id", "local_id")
OBS_TABLE = Table(TrackState, key=_OBS_KEY)
TRAJ_TABLE = Table(TrajRow, key=_OBS_KEY, vocab={"status": MotionStatus})
EVENT_TABLE = Table(EventRow, vocab={"kind": EventKind, "zone": Zone})  # engine order
TRUTH_OBS_TABLE = Table(TruthObs, key=_OBS_KEY)
TRUTH_TRACKS_TABLE = Table(TruthTrack, key=("vehicle_id",))
TRUTH_HANDOVERS_TABLE = Table(TrueHandover, key=("vehicle_id", "t_enter"))

OBS_HEADER = OBS_TABLE.header
TRAJ_HEADER = TRAJ_TABLE.header
EVENT_HEADER = EVENT_TABLE.header


def write_observations(path: str | Path, updates: Iterable[StreamUpdate]) -> int:
    return write_table(path, OBS_TABLE, (s for u in updates for s in u.tracks))


def read_observations(path: str | Path) -> Iterator[TrackState]:
    return read_table(path, OBS_TABLE)


def _row_error(r: TrackState, what: str) -> MalformedInputError:
    return MalformedInputError(
        f"row with frame_index={r.frame_index}, camera_id={r.camera_id}, "
        f"local_id={r.local_id}: {what}"
    )


def frames_from_rows(
    rows: Iterable[TrackState],
    camera_ids: Iterable[int],
    frame_count: int,
    frame_rate: float,
) -> Iterator[tuple[int, float, dict[int, tuple[TrackState, ...]]]]:
    """Yield ``(frame_index, t, per_camera)`` for every frame, empty ones
    included, grouping the rows as they stream past.

    ``per_camera`` maps every camera, in ascending order, to its rows of
    the frame; the cameras without any share the one ``()``. The rows must
    come in (frame_index, camera_id) order, as ``observations.csv`` holds
    them. Errors name the offending row by its (frame_index, camera_id,
    local_id), and are thrown into ``rows`` when it is a generator, so
    that a reader adds the row's ``path:line``.
    """
    cams = sorted(camera_ids)
    blank = dict.fromkeys(cams, ())  # every camera, none with a row yet
    times = [round(f / frame_rate, 6) for f in range(frame_count)]
    rows = iter(rows)
    throw = getattr(rows, "throw", None)

    def fault(r: TrackState, what: str):
        err = _row_error(r, what)
        if throw is not None:
            throw(err)
        raise err

    f, cam = 0, None  # the frame being filled, and the camera of ``group``
    cells = blank.copy()
    group: list[TrackState] = []
    for r in rows:
        rf, rc = r.frame_index, r.camera_id
        if not (0 <= rf < frame_count):
            fault(r, f"frame outside 0..{frame_count - 1}")
        if rc not in blank:
            fault(r, "unknown camera")
        if r.t != times[rf]:
            fault(r, f"t={r.t}, expected {times[rf]} at {frame_rate} fps")
        if rc != cam or rf != f:
            if rf < f or (rf == f and cam is not None and rc < cam):
                fault(r, "not in (frame_index, camera_id) order")
            if cam is not None:
                cells[cam] = tuple(group)
                group = []
            while f < rf:  # this frame is complete, and any before the row's are empty
                yield f, times[f], cells
                cells = blank.copy()
                f += 1
            cam = rc
        group.append(r)
    if cam is not None:
        cells[cam] = tuple(group)
    while f < frame_count:
        yield f, times[f], cells
        cells = blank.copy()
        f += 1


def write_trajectories(path: str | Path, rows: Iterable[TrajRow]) -> int:
    return write_table(path, TRAJ_TABLE, rows)


def read_trajectories(path: str | Path) -> Iterator[TrajRow]:
    return read_table(path, TRAJ_TABLE)


def _event_cells(ev: HandoverEvent) -> tuple:
    """An event's ``EventRow`` as a plain tuple in column order."""
    kind, frame_index, t, camera_id, local_id, global_id, edge, zone, y_rel, age, residual = ev
    up, down = (None, None) if edge is None else edge
    # _value_ skips the Python-level Enum.value property
    return (
        kind._value_, frame_index, t, camera_id, local_id, global_id, up, down,
        None if zone is None else zone._value_, y_rel, age, residual,
    )


def write_events(path: str | Path, events: Iterable[HandoverEvent]) -> int:
    return write_table(path, EVENT_TABLE, map(_event_cells, events))


def read_events(path: str | Path) -> Iterator[EventRow]:
    return read_table(path, EVENT_TABLE)


def write_truth_obs(path: str | Path, rows: Iterable[TruthObs]) -> int:
    return write_table(path, TRUTH_OBS_TABLE, rows)


def read_truth_obs(path: str | Path) -> Iterator[TruthObs]:
    return read_table(path, TRUTH_OBS_TABLE)


def write_truth_tracks(path: str | Path, rows: Iterable[TruthTrack]) -> int:
    return write_table(path, TRUTH_TRACKS_TABLE, rows)


def read_truth_tracks(path: str | Path) -> Iterator[TruthTrack]:
    return read_table(path, TRUTH_TRACKS_TABLE)


def write_truth_handovers(path: str | Path, rows: Iterable[TrueHandover]) -> int:
    return write_table(path, TRUTH_HANDOVERS_TABLE, rows)


def read_truth_handovers(path: str | Path) -> Iterator[TrueHandover]:
    return read_table(path, TRUTH_HANDOVERS_TABLE)
