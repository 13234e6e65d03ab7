"""format-version: binary-format discipline for containers and the store.

Every binary format this repo ships is identified by a 4-byte tag
(container magics ``SZR1``/``SZV1``/``ZFR2``/``ZFR3``/``ZFV1``/``ZFV2``/
``MGR2``, store index magic ``RPST``) and the project rule since PR 2 is:
**a format change needs a tag/version bump and a pinned golden fixture**,
so decoders keep reading every byte stream ever written.  This checker
makes the rule mechanical:

* it parses the tag registry out of the source (module-level
  ``*MAGIC* = b"XXXX"`` assignments) and cross-checks that every tag's
  bytes appear in some golden fixture under ``tests/**/data/`` of the
  linted tree's root, the nearest directory above the linted files that
  holds ``tests/`` (zip archives such as ``.npz`` goldens are searched
  inside);
* for the store index it parses ``INDEX_VERSION*`` constants out of
  ``store/format.py`` and checks each version number appears in the
  header of at least one pinned ``RPST`` index fixture;
* it enforces that the struct-layout constants of ``store/format.py``
  (underscore names: ``_HEADER``, ``_RECORD``, flag shifts…) are only
  referenced through the format module — importing them elsewhere, or
  re-declaring a registered magic as a bytes literal outside its owning
  module, silently forks the format.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import Checker, FileContext, Finding, ProjectContext, dotted_name

__all__ = ["FormatVersionChecker"]

_FORMAT_MODULE_SUFFIX = os.path.join("store", "format.py")


def _is_tag_bytes(value: object) -> bool:
    if not isinstance(value, bytes) or len(value) != 4:
        return False
    try:
        text = value.decode("ascii")
    except UnicodeDecodeError:
        return False
    return text.isupper() or (
        text[0].isupper() and all(c.isupper() or c.isdigit() for c in text)
    )


def _is_format_module(ctx: FileContext) -> bool:
    return ctx.path.endswith(_FORMAT_MODULE_SUFFIX)


class FormatVersionChecker(Checker):
    name = "format-version"
    description = (
        "every binary-format tag needs a pinned golden fixture under "
        "tests/**/data/, and struct-layout constants stay private to the "
        "format module"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []

        # -- gather the tag registry and the format module's internals --
        tags: Dict[bytes, List[Tuple[FileContext, ast.AST]]] = {}
        index_versions: List[Tuple[FileContext, ast.AST, int]] = []
        private_names: Set[str] = set()
        format_ctx = None
        index_magic: bytes = b""
        for ctx in project.files:
            for node in ctx.tree.body:
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = node.value
                if (
                    "MAGIC" in target.id
                    and isinstance(value, ast.Constant)
                    and _is_tag_bytes(value.value)
                ):
                    tags.setdefault(value.value, []).append((ctx, node))
                if _is_format_module(ctx):
                    format_ctx = ctx
                    if target.id.startswith("_"):
                        private_names.add(target.id)
                    if target.id == "INDEX_MAGIC" and isinstance(
                        value, ast.Constant
                    ) and isinstance(value.value, bytes):
                        index_magic = value.value
                    if target.id.startswith("INDEX_VERSION") and isinstance(
                        value, ast.Constant
                    ) and isinstance(value.value, int):
                        index_versions.append((ctx, node, value.value))

        blobs = project.fixture_blobs() if tags or index_versions else []

        # -- every tag must be pinned by a golden fixture -----------------
        for tag, sites in sorted(tags.items()):
            if any(tag in blob for _name, blob in blobs):
                continue
            ctx, node = sites[0]
            findings.append(
                ctx.finding(
                    self.name,
                    node,
                    f"format tag {tag!r} has no golden fixture under "
                    "tests/**/data/ — every binary format needs a pinned "
                    "golden so old payloads stay decodable (add a fixture "
                    "containing these container bytes)",
                )
            )

        # -- every declared index version must appear in a pinned index --
        if index_versions and index_magic:
            pinned_versions: Set[int] = set()
            for _name, blob in blobs:
                if len(blob) >= 8 and blob[:4] == index_magic:
                    pinned_versions.add(int.from_bytes(blob[4:6], "little"))
            for ctx, node, version in index_versions:
                if version not in pinned_versions:
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"index version {version} is declared but no "
                            "pinned index fixture under tests/**/data/ "
                            "carries it in its header — add a golden "
                            "index.bin for this version",
                        )
                    )

        # -- layout privacy ----------------------------------------------
        tag_owners = {
            tag: {ctx.path for ctx, _node in sites} for tag, sites in tags.items()
        }
        for ctx in project.files:
            if format_ctx is not None and ctx.path == format_ctx.path:
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if module.endswith("store.format"):
                        for alias in node.names:
                            if alias.name.startswith("_"):
                                findings.append(
                                    ctx.finding(
                                        self.name,
                                        node,
                                        f"struct-layout constant "
                                        f"{alias.name} imported from the "
                                        "format module; byte layout is "
                                        "private — go through pack_index/"
                                        "unpack_index",
                                    )
                                )
                elif isinstance(node, ast.Attribute):
                    if node.attr in private_names:
                        value_name = dotted_name(node.value) or ""
                        if value_name.split(".")[-1] == "format":
                            findings.append(
                                ctx.finding(
                                    self.name,
                                    node,
                                    f"struct-layout constant {node.attr} "
                                    "referenced outside the format module; "
                                    "byte layout is private — go through "
                                    "pack_index/unpack_index",
                                )
                            )
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, bytes
                ):
                    owners = tag_owners.get(node.value)
                    if owners and ctx.path not in owners:
                        findings.append(
                            ctx.finding(
                                self.name,
                                node,
                                f"registered format tag {node.value!r} "
                                "re-declared as a literal outside its owning "
                                "module; reference the named constant so tag "
                                "bumps stay single-sited",
                            )
                        )
        return findings
