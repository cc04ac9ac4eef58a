"""Config profiles: the ``~/.logram`` analog.

Reimplements the reference's ConfigHandler semantics
(/root/reference/src/config/ConfigHandler.cpp):

- INI-ish file of ``[[section]]`` blocks with ``k=v`` lines; everything
  before the first section banner is a preserved preamble;
- ``get`` falls back from the named profile to the ``common`` profile;
- ``save(profile)`` rewrites only that section in place (other text,
  ordering and unknown sections untouched);
- a ``profile_mapping`` section maps input paths to profile names.

Keys carried over: ``line_format``, ``filter``, ``hide_bad_fmt``,
``line_num_mode``; engine extensions (routes, sink paths) use the same
``k=v`` encoding with JSON values.
"""

from __future__ import annotations

import os

from logray.state.manifest import publish_text

COMMON_PROFILE = "common"
PROFILE_MAPPING = "profile_mapping"

KEY_LINE_FORMAT = "line_format"
KEY_FILTER = "filter"
KEY_HIDE_BAD_FMT = "hide_bad_fmt"
KEY_LINE_NUM_MODE = "line_num_mode"
KEY_ROUTES = "routes"

DEFAULT_CFG = """Here is a short explanation of the .logray config file
This is kind of a comment and there won't be another

[[common]]
line_format={STR:,0}
hide_bad_fmt=false
line_num_mode=global
"""


def _parse_lines(lines):
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in lines:
        if len(line) >= 4 and line.startswith("[["):
            close = line.find("]]", 2)
            if close != -1:
                current = line[2:close]
                sections.setdefault(current, {})
                continue
        if current is None:
            continue
        eq = line.find("=")
        if eq == -1:
            continue
        sections[current][line[:eq]] = line[eq + 1 :]
    return sections


class ProfileStore:
    """Load/save pipeline profiles with the reference's file semantics."""

    def __init__(self, path: str | None = None):
        self.path = path or os.path.join(os.path.expanduser("~"), ".logray")
        self.sections: dict[str, dict[str, str]] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            self._write(DEFAULT_CFG)
            self.sections = _parse_lines(DEFAULT_CFG.splitlines())
            return
        with open(self.path) as f:
            self.sections = _parse_lines(f.read().splitlines())

    def _write(self, text: str) -> None:
        """Commit the whole file, through a symlink."""
        publish_text(os.path.realpath(self.path), text)

    # -- get/set ----------------------------------------------------------

    def get(self, profile: str, key: str, default: str = "") -> str:
        if profile and profile in self.sections and key in self.sections[profile]:
            return self.sections[profile][key]
        if profile != COMMON_PROFILE:
            common = self.sections.get(COMMON_PROFILE, {})
            if key in common:
                return common[key]
        return default

    def set(self, profile: str, key: str, value: str) -> None:
        self.sections.setdefault(profile, {})[key] = value

    # -- persistence ------------------------------------------------------

    def save(self, profile: str) -> None:
        """Rewrite only the given section in place (ConfigHandler::save)."""
        lines: list[str] = []
        if os.path.exists(self.path):
            with open(self.path) as f:
                lines = f.read().splitlines()
        banner = f"[[{profile}]]"
        new_section = [banner] + [
            f"{k}={v}" for k, v in sorted(self.sections.get(profile, {}).items())
        ]
        start, end = -1, len(lines)
        for i, line in enumerate(lines):
            if line.startswith(banner):
                start = i
                for j in range(i + 1, len(lines)):
                    if lines[j].startswith("[["):
                        end = j
                        break
                break
        if start == -1:
            if lines and lines[-1] != "":
                lines.append("")
            lines.extend(new_section)
        else:
            lines[start:end] = new_section
        self._write("\n".join(lines) + "\n")

    def save_all(self) -> None:
        preamble: list[str] = []
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f.read().splitlines():
                    if line.startswith("[[") and "]]" in line:
                        break
                    preamble.append(line)
        out = list(preamble)

        def emit(name: str) -> None:
            out.append(f"[[{name}]]")
            for k, v in sorted(self.sections.get(name, {}).items()):
                out.append(f"{k}={v}")
            out.append("")

        emit(COMMON_PROFILE)
        for name in self.sections:
            if name not in (COMMON_PROFILE, PROFILE_MAPPING):
                emit(name)
        emit(PROFILE_MAPPING)
        self._write("\n".join(out) + "\n")

    # -- per-file mapping --------------------------------------------------

    def profile_for_file(self, file_path: str) -> str:
        return self.sections.get(PROFILE_MAPPING, {}).get(file_path, "")

    def set_profile_for_file(self, file_path: str, profile: str) -> None:
        self.sections.setdefault(PROFILE_MAPPING, {})[file_path] = profile
        self.save(PROFILE_MAPPING)
