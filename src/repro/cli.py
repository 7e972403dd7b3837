"""A cluster shell: drive the simulation with the real tools' command lines.

Section 6's training value is that students type the *actual commands*
(`rocks list host`, `yum install`, `qsub`, `module load`) against hardware
they built.  :class:`ClusterShell` binds a provisioned cluster (plus an
optional scheduler and yum repositories) and executes those command lines,
returning the text a terminal would show.  Unknown commands and commands
whose binary is not installed on the current host fail the way a real shell
would.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

from .distro.host import Host
from .distro.modules_env import ModuleSession
from .errors import CommandError, ReproError
from .fleet import NodeSet
from .rocks.installer import ProvisionedCluster
from .scheduler.base import BaseScheduler
from .scheduler.job import Job
from .shell import ShellCommand, ShellEngine, render_groups
from .yum.client import YumClient
from .yum.repository import Repository

__all__ = ["ClusterShell", "ShellResult"]


@dataclass
class ShellResult:
    """One executed command line."""

    command: str
    output: str
    ok: bool = True

    def __str__(self) -> str:
        return self.output


def _split(command_line: str) -> list[str]:
    """The line's shell words; a line that does not parse is a typed failure."""
    try:
        return shlex.split(command_line)
    except ValueError as exc:  # unterminated quote, trailing backslash
        raise CommandError(f"syntax error: {exc}") from None


def _number(convert, flag: str, text: str):
    """``int``/``float`` of a flag's value; a non-number is a typed failure."""
    try:
        return convert(text)
    except ValueError:
        raise CommandError(f"{flag}: not a number: {text!r}") from None


class ClusterShell:
    """An interactive-style session against a provisioned cluster."""

    def __init__(
        self,
        cluster: ProvisionedCluster,
        *,
        scheduler: BaseScheduler | None = None,
        repositories: dict[str, Repository] | None = None,
        group_catalog=None,
        condor_pool=None,
        gmetad=None,
        lustre=None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.repositories = repositories or {}
        self.group_catalog = group_catalog
        self.condor_pool = condor_pool
        self.gmetad = gmetad
        self.lustre = lustre
        self.current: Host = cluster.frontend
        self._yum_clients: dict[str, YumClient] = {}
        self._module_sessions: dict[str, ModuleSession] = {}
        self._shell_engine: ShellEngine | None = None
        self._last_clush = None
        self.history: list[ShellResult] = []

    # -- plumbing -----------------------------------------------------------------

    def _yum(self) -> YumClient:
        name = self.current.name
        if name not in self._yum_clients:
            client = YumClient(self.current, self.cluster.db_for(self.current))
            for repo in self.repositories.values():
                client.repos.add_repo(repo)
            self._yum_clients[name] = client
        return self._yum_clients[name]

    def _modules(self) -> ModuleSession:
        name = self.current.name
        if name not in self._module_sessions:
            self._module_sessions[name] = ModuleSession(self.current.modules)
        return self._module_sessions[name]

    def _require_command(self, binary: str) -> None:
        if not self.current.has_command(binary):
            raise CommandError(
                f"{self.current.name}: bash: {binary}: command not found"
            )

    # -- dispatch ----------------------------------------------------------------

    def run(self, command_line: str) -> ShellResult:
        """Execute one command line on the current host.

        A blank line raises :class:`CommandError`; any other line yields a
        result, with ``ok=False`` if it does not parse or its command fails.
        """
        if not command_line.strip(" \t\r\n"):  # shlex's whitespace
            raise CommandError("empty command")
        try:
            verb, *args = _split(command_line)
            handler = getattr(self, f"_cmd_{verb.replace('-', '_')}", None)
            if handler is None:
                # fall back: does the binary at least exist?
                self._require_command(verb)
                output = f"{verb}: ok"
            else:
                output = handler(args)
            result = ShellResult(command=command_line, output=output)
        except ReproError as exc:
            result = ShellResult(command=command_line, output=str(exc), ok=False)
        self.history.append(result)
        return result

    # -- host selection -----------------------------------------------------------

    def _cmd_ssh(self, args: list[str]) -> str:
        """ssh <host>: hop to another cluster node."""
        if len(args) != 1:
            raise CommandError("usage: ssh <host>")
        target = args[0]
        for host in self.cluster.hosts():
            if host.name == target:
                self.current = host
                return f"Last login: now on {target}"
        raise CommandError(f"ssh: could not resolve hostname {target}")

    def _cmd_hostname(self, args: list[str]) -> str:
        return self.current.name

    # -- inspection ------------------------------------------------------------------

    def _cmd_cat(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: cat <path>")
        return self.current.fs.read(args[0])

    def _cmd_which(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: which <command>")
        return self.current.which(args[0])

    def _cmd_df(self, args: list[str]) -> str:
        mounts = self.current.fs.mounts()
        lines = ["Filesystem            Mounted on"]
        lines.append("/dev/sda1             /")
        for mount_point, src in mounts.items():
            lines.append(f"{src:<22}{mount_point}")
        return "\n".join(lines)

    def _cmd_rpm(self, args: list[str]) -> str:
        self._require_command("rpm")
        db = self.cluster.db_for(self.current)
        if args[:1] == ["-qa"]:
            return "\n".join(p.nevra for p in db.installed())
        if args[:1] == ["-q"] and len(args) == 2:
            name = args[1]
            if db.has(name):
                return db.get(name).nevra
            raise CommandError(f"package {name} is not installed")
        raise CommandError("usage: rpm -q <name> | rpm -qa")

    # -- yum ---------------------------------------------------------------------------

    def _cmd_yum(self, args: list[str]) -> str:
        self._require_command("yum")
        if not args:
            raise CommandError("usage: yum <install|update|check-update|repolist> ...")
        client = self._yum()
        verb, rest = args[0], args[1:]
        if verb == "install":
            result = client.install(*rest)
            return result.summary() + "\nComplete!"
        if verb == "update":
            result = client.update(*rest)
            if result is None:
                return "No Packages marked for Update"
            return result.summary() + "\nComplete!"
        if verb == "check-update":
            pending = client.check_update()
            if not pending:
                return ""
            return "\n".join(str(u) for u in pending)
        if verb == "repolist":
            lines = ["repo id            priority  packages"]
            lines += [
                f"{rid:<19}{prio:>8}{count:>10}"
                for rid, prio, count in client.repolist()
            ]
            return "\n".join(lines)
        if verb == "erase":
            result = client.erase(*rest)
            return result.summary() + "\nComplete!"
        if verb == "grouplist":
            if self.group_catalog is None:
                raise CommandError("no group metadata (comps) available")
            lines = ["Available Groups:"]
            lines += [
                f"   {g.name} ({g.group_id})"
                for g in self.group_catalog.grouplist()
            ]
            return "\n".join(lines)
        if verb == "groupinfo" and len(rest) == 1:
            if self.group_catalog is None:
                raise CommandError("no group metadata (comps) available")
            return self.group_catalog.groupinfo(rest[0])
        if verb == "groupinstall" and rest:
            if self.group_catalog is None:
                raise CommandError("no group metadata (comps) available")
            from .yum.groups import groupinstall as _groupinstall

            result = _groupinstall(client, self.group_catalog, rest[0])
            return result.summary() + "\nComplete!"
        raise CommandError(f"unknown yum verb {verb!r}")

    # -- rocks ---------------------------------------------------------------------------

    def _cmd_rocks(self, args: list[str]) -> str:
        self._require_command("rocks")
        if args[:2] == ["list", "host"]:
            lines = ["HOST            MAC                IP           APPLIANCE  STATE"]
            for rec in self.cluster.rocksdb.hosts():
                lines.append(
                    f"{rec.name:<16}{rec.mac:<19}{rec.ip:<13}"
                    f"{rec.appliance:<11}{rec.state.value}"
                )
            return "\n".join(lines)
        if args[:2] == ["list", "roll"]:
            lines = ["NAME          VERSION  PACKAGES"]
            for name in self.cluster.roll_names():
                roll = self.cluster.rolls[name]
                lines.append(f"{name:<14}{roll.version:<9}{len(roll.packages)}")
            return "\n".join(lines)
        if args[:2] == ["run", "host"] and len(args) >= 3:
            # rocks run host [compute|<name>] "<command>" — fan a command
            # out across appliances, like the real tool
            selector = args[2] if len(args) >= 4 else "compute"
            command = args[3] if len(args) >= 4 else args[2]
            targets = []
            for host in self.cluster.hosts():
                record = self.cluster.rocksdb.get(host.name)
                if selector in (host.name, record.appliance):
                    targets.append(host)
            if not targets:
                raise CommandError(f"rocks run host: no hosts match {selector!r}")
            saved = self.current
            lines = []
            try:
                for host in targets:
                    self.current = host
                    result = self.run(command)
                    first = result.output.splitlines()[0] if result.output else ""
                    lines.append(f"{host.name}: {first}")
            finally:
                self.current = saved
            return "\n".join(lines)
        raise CommandError(
            "usage: rocks list host | rocks list roll | "
            "rocks run host [selector] <command>"
        )

    # -- parallel admin execution (clush / clubak / nodeset) ---------------------------

    def _fleet_groups(self) -> dict[str, NodeSet]:
        """``@appliance`` groups (plus ``@all``) over the live fleet table."""
        fleet = self.cluster.rocksdb.fleet
        names: dict[str, list[str]] = {}
        for i in fleet.ordered_indices():
            names.setdefault(fleet.appliances[i], []).append(fleet.names[i])
        groups = {
            appliance: NodeSet.from_names(members)
            for appliance, members in sorted(names.items())
        }
        groups["all"] = fleet.nodeset()
        return groups

    def _engine(self) -> ShellEngine:
        """The lazily-built fan-out engine, on the scheduler's kernel when
        there is one (so clush time shares the cluster's timeline)."""
        if self._shell_engine is None:
            kernel = self.scheduler.kernel if self.scheduler is not None else None
            self._shell_engine = ShellEngine(
                self.cluster.rocksdb.fleet, kernel=kernel
            )
        return self._shell_engine

    def _cmd_nodeset(self, args: list[str]) -> str:
        """nodeset --fold|--expand|--count <expr>...: NodeSet arithmetic."""
        modes = ("--fold", "-f", "--expand", "-e", "--count", "-c")
        if len(args) < 2 or args[0] not in modes:
            raise CommandError("usage: nodeset --fold|--expand|--count <nodeset>...")
        mode, groups = args[0], self._fleet_groups()
        nodes = NodeSet()
        for expr in args[1:]:
            nodes = nodes | NodeSet.parse(expr, groups=groups)
        if mode in ("--fold", "-f"):
            return nodes.fold()
        if mode in ("--expand", "-e"):
            return " ".join(nodes)
        return str(len(nodes))

    def _cmd_clush(self, args: list[str]) -> str:
        """clush -w <nodeset> [-b] [-f fanout] [-t timeout] <command>."""
        nodes_expr: str | None = None
        fanout, timeout_s, fold_output = 32, 30.0, False
        rest: list[str] = []
        i = 0
        while i < len(args):
            arg = args[i]
            if arg == "-w" and i + 1 < len(args):
                nodes_expr = args[i + 1]
                i += 2
            elif arg == "-f" and i + 1 < len(args):
                fanout = _number(int, "clush -f", args[i + 1])
                i += 2
            elif arg == "-t" and i + 1 < len(args):
                timeout_s = _number(float, "clush -t", args[i + 1])
                i += 2
            elif arg == "-b":
                fold_output = True
                i += 1
            else:
                rest = args[i:]
                break
        if nodes_expr is None or not rest:
            raise CommandError(
                "usage: clush -w <nodeset> [-b] [-f fanout] [-t timeout_s] "
                "<command>"
            )
        targets = NodeSet.parse(nodes_expr, groups=self._fleet_groups())
        line = " ".join(rest)

        def on_node(node: str) -> tuple[int, str]:
            saved = self.current
            try:
                self.current = self.cluster.host_for(node)
                result = self.run(line)
                first = result.output.splitlines()[0] if result.output else ""
                return (0 if result.ok else 1), first
            finally:
                self.current = saved

        report = self._engine().run(
            targets,
            ShellCommand(line, duration_s=0.5, handler=on_node),
            fanout=fanout,
            timeout_s=timeout_s,
        )
        self._last_clush = report
        if fold_output:
            return report.render()
        lines = []
        for name, result in report.results.items():
            if result.status == "skipped":
                lines.append(f"clush: {name}: skipped ({result.reason})")
            elif result.rc is None:
                lines.append(f"clush: {name}: {result.reason}")
            else:
                lines.append(f"{name}: {result.output}")
        ok, failed, skipped = report.counts()
        lines.append(f"clush: {ok} ok, {failed} failed, {skipped} skipped")
        return "\n".join(lines)

    def _cmd_clubak(self, args: list[str]) -> str:
        """clubak: fold the last clush run's outputs under NodeSet labels."""
        if self._last_clush is None:
            raise CommandError("clubak: no clush output to fold (run clush first)")
        folded = render_groups(self._last_clush.groups())
        return folded if folded else "(no output)"

    # -- modules -----------------------------------------------------------------------------

    def _cmd_module(self, args: list[str]) -> str:
        self._require_command("module")
        if not args:
            raise CommandError("usage: module <avail|load|unload|list> ...")
        session = self._modules()
        verb, rest = args[0], args[1:]
        if verb == "avail":
            return "\n".join(self.current.modules.avail())
        if verb == "load" and len(rest) == 1:
            module = session.load(rest[0])
            return f"Loading {module.fullname}"
        if verb == "unload" and len(rest) == 1:
            session.unload(rest[0])
            return f"Unloading {rest[0]}"
        if verb == "list":
            loaded = session.loaded()
            if not loaded:
                return "No Modulefiles Currently Loaded."
            return "Currently Loaded Modulefiles:\n  " + "\n  ".join(loaded)
        raise CommandError(f"unknown module verb {verb!r}")

    # -- batch -----------------------------------------------------------------------------------

    def _cmd_qsub(self, args: list[str]) -> str:
        """qsub -c cores -N name -u user -t runtime_s -w walltime_s"""
        self._require_command("qsub")
        if self.scheduler is None:
            raise CommandError("no scheduler attached to this shell")
        options = {"-N": "job", "-u": "user", "-t": "60", "-w": "3600", "-c": "1"}
        it = iter(args)
        for token in it:
            if token in options:
                options[token] = next(it, options[token])
            else:
                raise CommandError(f"qsub: unknown option {token}")
        job = Job(
            name=options["-N"],
            user=options["-u"],
            cores=_number(int, "qsub -c", options["-c"]),
            walltime_limit_s=_number(float, "qsub -w", options["-w"]),
            runtime_s=_number(float, "qsub -t", options["-t"]),
        )
        self.scheduler.submit(job)
        return f"{job.job_id}.{self.cluster.frontend.name}"

    def _cmd_qstat(self, args: list[str]) -> str:
        self._require_command("qstat")
        if self.scheduler is None:
            raise CommandError("no scheduler attached to this shell")
        lines = ["Job ID    Name          User      S"]
        states = {"pending": "Q", "running": "R", "completed": "C",
                  "failed": "E", "cancelled": "C"}
        for job in (
            self.scheduler.running + self.scheduler.pending + self.scheduler.finished
        ):
            lines.append(
                f"{job.job_id:<10}{job.name:<14}{job.user:<10}"
                f"{states[job.state.value]}"
            )
        return "\n".join(lines)

    def _cmd_showq(self, args: list[str]) -> str:
        """Maui's showq: active, then eligible jobs."""
        self._require_command("showq")
        if self.scheduler is None:
            raise CommandError("no scheduler attached to this shell")
        lines = ["ACTIVE JOBS"]
        for job in self.scheduler.running:
            lines.append(
                f"  {job.job_id:<6}{job.name:<16}{job.user:<10}"
                f"{job.cores:>4} cores  Running"
            )
        lines.append("ELIGIBLE JOBS")
        for job in self.scheduler.pending:
            lines.append(
                f"  {job.job_id:<6}{job.name:<16}{job.user:<10}"
                f"{job.cores:>4} cores  Idle"
            )
        lines.append(
            f"Total jobs: {len(self.scheduler.running) + len(self.scheduler.pending)}"
        )
        return "\n".join(lines)

    def _cmd_pbsnodes(self, args: list[str]) -> str:
        """Torque's pbsnodes -a: per-node state and core counts."""
        self._require_command("pbsnodes")
        if self.scheduler is None:
            raise CommandError("no scheduler attached to this shell")
        res = self.scheduler.resources
        lines = []
        for node in res.node_names():
            state = "offline" if res.is_offline(node) else (
                "job-exclusive" if res.free_of(node) == 0 else "free"
            )
            lines.append(f"{node}")
            lines.append(f"     state = {state}")
            lines.append(
                f"     np = {res.capacity_of(node)} "
                f"(free {res.free_of(node)})"
            )
        return "\n".join(lines)

    def _cmd_useradd(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: useradd <name>")
        user = self.current.users.add_user(args[0])
        return f"created {user.name} (uid {user.uid}, home {user.home})"

    # -- static analysis ---------------------------------------------------------

    def _cmd_cluster_lint(self, args: list[str]) -> str:
        """cluster-lint [--json] [--fail-on error|warning|info]: run the
        pre-flight analyzer over this cluster's own recipe."""
        from .analyze import AnalysisConfig, ClusterDefinition, Severity, analyze

        fail_on = Severity.ERROR
        as_json = False
        it = iter(args)
        for token in it:
            if token == "--json":
                as_json = True
            elif token == "--fail-on":
                value = next(it, "")
                try:
                    fail_on = Severity(value)
                except ValueError:
                    raise CommandError(
                        f"cluster-lint: bad --fail-on {value!r} "
                        f"(error|warning|info)"
                    )
            else:
                raise CommandError(
                    "usage: cluster-lint [--json] [--fail-on <severity>]"
                )
        definition = ClusterDefinition.from_cluster(self.cluster)
        result = analyze(definition, config=AnalysisConfig(fail_on=fail_on))
        return result.render_json() if as_json else result.render_text()

    # -- roll-provided tools ----------------------------------------------------

    def _cmd_condor_status(self, args: list[str]) -> str:
        self._require_command("condor_submit")
        if self.condor_pool is None:
            raise CommandError("no condor pool attached to this shell")
        return self.condor_pool.condor_status()

    def _cmd_condor_q(self, args: list[str]) -> str:
        self._require_command("condor_q")
        if self.condor_pool is None:
            raise CommandError("no condor pool attached to this shell")
        lines = ["ID     OWNER      ST  NAME"]
        states = {"idle": "I", "running": "R", "evicted": "I"}
        for job in self.condor_pool.queue:
            lines.append(
                f"{job.job_id:<7}{job.owner:<11}"
                f"{states.get(job.state.value, '?'):<4}{job.ad.name}"
            )
        lines.append(
            f"{len(self.condor_pool.queue)} jobs; "
            f"{len(self.condor_pool.running_jobs())} running"
        )
        return "\n".join(lines)

    def _cmd_ganglia(self, args: list[str]) -> str:
        if self.gmetad is None:
            raise CommandError("no gmetad attached to this shell")
        return self.gmetad.render_dashboard()

    def _cmd_lfs(self, args: list[str]) -> str:
        if self.lustre is None:
            raise CommandError("no Lustre filesystem attached to this shell")
        if args[:1] == ["df"]:
            return self.lustre.df()
        if args[:2] == ["getstripe", args[1] if len(args) > 1 else ""]:
            record = self.lustre.stat(args[1])
            return (
                f"{record.path}\n"
                f"lmm_stripe_count:  {record.layout.stripe_count}\n"
                f"lmm_stripe_size:   {record.layout.stripe_size_bytes}\n"
                f"obdidx: {list(record.layout.ost_indices)}"
            )
        raise CommandError("usage: lfs df | lfs getstripe <path>")
